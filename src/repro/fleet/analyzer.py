"""The fleet analyzer: an asyncio front-end over the streaming service.

One process accepts N agent connections (TCP or Unix sockets), reassembles
the global evidence order from contiguous per-agent chunks, and feeds the
analysis core.  Two interchangeable cores implement ingestion:

* :class:`ServiceIngestCore` — decodes every chunk to evidence objects and
  hands them to a real :class:`~repro.api.service.Zero07Service` /
  :class:`~repro.api.sharded.ShardedService` through the vectorized
  ``ingest_run`` path.  Full service semantics (both engines, process
  backend, checkpoints) at object-decode speed.
* :class:`ColumnarIngestCore` — folds each chunk's
  :class:`~repro.api.wire.WireRun` columns straight into an
  :class:`~repro.api.wire.EvidenceColumnStore` (no per-event objects), and
  materializes reports with ``AnalysisAgent.analyze_tally``.  Reports are
  bit-identical to an ``ingest_batch`` replay — the store's own proven
  contract — at several times the object-decode throughput.  Any delivery
  the columns cannot prove clean falls back to replaying the epoch's
  retained chunks through a throwaway service, which is the correctness
  oracle.

Ordering discipline: agents send *contiguous* slices of each epoch's
sequence space.  A chunk that extends the epoch's flushed prefix is ingested
immediately; anything else joins a *lane* — the contiguous stretch it
continues — which the columnar core folds on arrival into a tally of its
own, and which joins the prefix (one ``ArrayVoteTally.extend``) the moment
its gap closes, or at the epoch's tick barrier (every expected agent
ticked) with whatever gap is left, lanes in any order: integer vote units
add up the same.  So the barrier has no fold to catch up on, however far
ahead of one another the agents run.  Redelivered chunks after a reconnect are dropped or
trimmed against the flushed watermark and the lanes, and whatever slips
through is deduplicated by the service's per-epoch sequence tracking —
at-least-once delivery with exactly-once effect.

Backpressure: each connection gets a byte credit window in its WELCOME;
evidence is acked (with the epoch/seq watermark and cumulative bytes) as it
is staged; a lane's bytes stay staged, folded or not, until it joins.  When
total staged bytes exceed the configured bound the
analyzer defers acks — agents stall on their windows — and releases them as
flushes drain the backlog; each deferral episode counts one backpressure
engagement.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api.events import EpochTick
from repro.api.service import ReportUnavailableError, Zero07Service
from repro.api.wire import (
    EvidenceColumnStore,
    LinkRemap,
    TallyLane,
    WireDecoder,
    WireProtocolError,
    WireRun,
)
from repro.core.analysis import AnalysisAgent, EpochReport
from repro.core.arrays import LinkIndex
from repro.core.blame import BlameConfig
from repro.core.votes import PathTooLongError, VotePolicy
from repro.fleet import protocol
from repro.fleet.protocol import (
    Endpoint,
    FleetProtocolError,
    FrameReader,
    HandshakeError,
    VersionMismatchError,
)

#: most flows one ``flows`` reply describes (a page, or an ``ids`` list): the
#: reply is built and encoded on the event loop, so this bounds how long one
#: query can keep ingestion waiting (~3 ms at this size; the first query of a
#: report also pays its one per-flow derivation).
FLOWS_PAGE_LIMIT = 4096


@dataclass
class AnalyzerStats:
    """Counters describing one analyzer's lifetime (served over the query socket)."""

    connections_accepted: int = 0
    handshakes: int = 0
    frames_received: int = 0
    bytes_received: int = 0
    evidence_events: int = 0
    chunks_staged: int = 0
    chunks_flushed: int = 0
    duplicate_chunks: int = 0
    trimmed_chunks: int = 0
    late_chunks: int = 0
    ticks_received: int = 0
    epochs_finalized: int = 0
    protocol_errors: int = 0
    connection_timeouts: int = 0
    backpressure_engagements: int = 0
    acks_deferred: int = 0
    heartbeats: int = 0
    #: ``report`` queries received, how many reused a cached reply line, and
    #: how many distinct reports were encoded — hits + encodes + error
    #: replies add up to the queries.
    report_queries: int = 0
    report_view_hits: int = 0
    reports_encoded: int = 0
    #: ``flows`` queries received (pages and id lookups, rejected ones too).
    flows_queries: int = 0
    #: bytes of reply lines written to query connections, every verb.
    query_bytes_sent: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain JSON-serializable mapping."""
        return dict(self.__dict__)


def report_to_json(report: EpochReport) -> Dict:
    """An :class:`EpochReport`'s link verdict as the query socket serves it.

    ``signature`` has the ten positions of
    :func:`~repro.testing.report_signature` (tuples become JSON arrays) with
    the three per-flow ones — 3 flow causes, 4 noise flows, 5 failure flows —
    ``null``: the document is O(links), whatever the epoch's flow count.
    ``flows`` says how long each of the three would be; the ``flows`` verb
    serves their content, and ``FleetQueryClient.report_signature`` puts the
    full signature back together for bit-identity checks.  An arrays-engine
    report is written from its vote arrays and the link index's name table
    (``str(link)`` once per link, not once per link per reply); its per-link
    tables stay unbuilt.
    """
    blame = report.blame
    arrays = blame.arrays
    if arrays is None:  # a dict-engine report: the tables are all it has

        def named(pairs):
            return [(str(link), votes) for link, votes in pairs]

        detected = list(map(str, blame.detected_links))
        ranked = named(report.ranked_links)
        at_detection = named(blame.votes_at_detection.items())
        final = named(blame.final_votes.items())
    else:
        names = arrays.index.names()
        detected = list(map(names.__getitem__, arrays.detected))
        ranked = list(arrays.table(names, arrays.votes, arrays.ranked()))
        at_detection = zip(detected, arrays.votes_at)
        final = arrays.table(names, arrays.final)
    return {
        "epoch": report.epoch,
        "detected_links": detected,
        "top_links": list(map(list, ranked[:10])),
        "num_paths_analyzed": report.num_paths_analyzed,
        "summary": report.summary(),
        # layout owned by repro.testing.report_signature; the paging tests
        # hold this copy and FleetQueryClient's [3:6] splice to it
        "signature": [
            report.epoch,
            detected,
            ranked,
            None,
            None,
            None,
            report.num_paths_analyzed,
            blame.threshold_votes,
            sorted(at_detection),
            sorted(final),
        ],
        "flows": report.flow_counts()._asdict(),
    }


def _epoch_argument(request: Dict, verb: str) -> Optional[int]:
    """A query's ``epoch``: a non-negative integer, or ``None`` (absent or
    ``null``) for the newest epoch the core knows."""
    epoch = request.get("epoch")
    if epoch is None:
        return None
    if type(epoch) is not int:  # bool is not an epoch
        raise ValueError(f"{verb} epoch must be an integer or null")
    if epoch < 0:
        raise ValueError(f"{verb} epoch must not be negative")
    return epoch


def _count_argument(request: Dict, name: str, default: int) -> int:
    """A ``flows`` query's ``offset`` / ``limit``."""
    value = request.get(name, default)
    if type(value) is not int or value < 0:
        raise ValueError(f"flows {name} must be a non-negative integer")
    return value


def _reply_line(response: Dict) -> bytes:
    """One query-socket reply as the newline-terminated JSON line sent."""
    return json.dumps(response, sort_keys=True).encode("utf-8") + b"\n"


# ---------------------------------------------------------------------------
# ingest cores
# ---------------------------------------------------------------------------
class _FinalizedCount:
    """A report sink that only counts: one report per finalized epoch."""

    count = 0

    def on_report(self, report: EpochReport) -> None:
        self.count += 1


class ServiceIngestCore:
    """Feed decoded evidence runs into a real streaming service.

    Works with :class:`Zero07Service` and :class:`ShardedService` alike —
    both expose ``ingest_run``/``ingest``/``report``.  The analyzer owns the
    chunk ordering; this core just materializes each chunk's events and
    hands them over ``owned=True`` (the decode allocated them for exactly
    this consumer).
    """

    mode = "events"

    def __init__(self, service) -> None:
        self.service = service
        self._finalized = _FinalizedCount()
        service.add_sink(self._finalized)

    @property
    def last_finalized(self) -> Optional[int]:
        """The newest epoch the service has closed."""
        return self.service.last_finalized_epoch

    @property
    def epochs_finalized(self) -> int:
        """Epochs this core's ticks closed, gap epochs included."""
        return self._finalized.count

    def counters(self) -> Dict[str, int]:
        """What left the vector path, for the ``stats`` verb; never blocks."""
        service = self.service
        if isinstance(service, Zero07Service):
            return {"fallback_events": service.stats.fallback_events}
        return {"fallback_events": service.fallback_events}

    def append_chunk(self, run: WireRun, remap: Optional[LinkRemap]) -> None:
        """Ingest one in-order chunk (events are materialized here)."""
        self.service.ingest_run(
            run.epoch, run.materialize(), owned=True, seqs=run.seqs
        )

    def append_events(self, epoch: int, events: List, seqs) -> None:
        """Ingest an already-materialized (e.g. trimmed) run."""
        self.service.ingest_run(epoch, events, owned=True, seqs=seqs)

    def tick(self, epoch: int) -> None:
        """Close ``epoch`` (and any gap epochs before it)."""
        self.service.ingest(EpochTick(epoch))

    def report(self, epoch: Optional[int] = None) -> EpochReport:
        """The service's report for ``epoch`` (mid-epoch queries included).

        Both services return the identical object while no evidence for the
        epoch arrived, which is what the query socket's line cache keys on.
        """
        return self.service.report(epoch)

    def describe(self) -> Dict:
        """Mode and service shape, for ``meta.json`` and the query socket."""
        service = self.service
        return {
            "mode": self.mode,
            "service": type(service).__name__,
            "engine": getattr(service, "engine", None),
            "num_shards": getattr(service, "num_shards", 1),
        }

    def close(self) -> None:
        """Release service resources (worker processes, pipes)."""
        close = getattr(self.service, "close", None)
        if close is not None:
            close()


class ColumnarIngestCore:
    """Fold wire chunks into merged tallies; build reports without objects.

    The hot path folds each chunk's columns (link ids remapped onto one
    shared :class:`LinkIndex`) into the epoch's live tally inside an
    :class:`EvidenceColumnStore` — the fold is paid per chunk, so a report
    is a snapshot (``build_tally``) plus ``analyze_tally``, bit-identical to
    an ``ingest_batch`` replay by the store's contract — and keeps the raw
    :class:`WireRun` for replay.  Chunks ahead of the sequence prefix fold
    into a side lane (:meth:`open_lane`) and join it when the rows before
    them are in, or at the barrier (:meth:`join_lane`).  Epochs the store
    marks dirty (duplicates that slipped the trim, lanes sharing a sequence
    number, seq-less updates) replay their retained chunks through a
    throwaway :class:`Zero07Service`, whose duplicate/out-of-order tolerance
    is the correctness oracle.  Arrays engine only.

    An open epoch keeps its last report as a versioned view: the version is
    the number of chunks retained for the epoch (every append adds one), so
    a query that finds it unchanged returns the identical report object
    without a snapshot, an analysis or — for a dirty epoch — a replay.
    """

    mode = "columns"

    def __init__(
        self,
        blame_config: Optional[BlameConfig] = None,
        vote_policy: VotePolicy = "inverse_hops",
        retain_reports: int = 16,
    ) -> None:
        self._blame_config = blame_config or BlameConfig()
        self._vote_policy: VotePolicy = vote_policy
        self._retain_reports = retain_reports
        self._link_index = LinkIndex()
        self._store = EvidenceColumnStore(self._link_index, vote_policy)
        self._agent = AnalysisAgent(
            blame_config=self._blame_config,
            vote_policy=vote_policy,
            engine="arrays",
            link_index=self._link_index,
        )
        #: per-epoch retained chunks, arrival order, for dirty-epoch replay.
        self._retained: Dict[int, List] = {}
        #: open epoch -> (chunks retained when materialized, that report);
        #: only ever holds epochs that are in ``_retained``.
        self._views: Dict[int, Tuple[int, EpochReport]] = {}
        self._final_reports: Dict[int, EpochReport] = {}
        self._last_finalized: Optional[int] = None
        #: epochs closed by :meth:`tick`, gap epochs included.
        self.epochs_finalized = 0
        #: epochs that replayed instead of folding columns (visible in stats).
        self.replayed_epochs = 0

    @property
    def last_finalized(self) -> Optional[int]:
        """The newest epoch closed by a tick barrier."""
        return self._last_finalized

    def counters(self) -> Dict[str, int]:
        """What left the vector path, for the ``stats`` verb."""
        return {"replayed_epochs": self.replayed_epochs}

    def append_chunk(self, run: WireRun, remap: Optional[LinkRemap], lane: Optional[TallyLane] = None) -> None:
        """Fold one chunk's columns into the epoch's store: the next in
        sequence order, or — with ``lane``, from :meth:`open_lane` — the next
        of a stretch that is ahead of it (retained by whoever joins it)."""
        if remap is None:
            raise ValueError("columnar core needs each connection's LinkRemap")
        if lane is None:
            self._retained.setdefault(run.epoch, []).append(("run", run, None))
        self._store.append_columns(run.epoch, run, remap.ids(run.lids), lane)

    def open_lane(self) -> TallyLane:
        """A side lane for chunks that arrive ahead of the flushed prefix."""
        return self._store.open_lane()

    def join_lane(self, epoch: int, lane: TallyLane, runs: List[WireRun]) -> None:
        """The rows before ``lane`` are all in: append its rows (and ``runs``,
        the chunks it was folded from, to what a dirty epoch replays)."""
        self._retained.setdefault(epoch, []).extend(("run", run, None) for run in runs)
        self._store.join(epoch, lane)

    def append_events(self, epoch: int, events: List, seqs) -> None:
        """Fold an already-materialized (e.g. trimmed) run into the store."""
        self._retained.setdefault(epoch, []).append(("events", events, seqs))
        self._store.append_run(epoch, events, seqs=np.asarray(seqs, dtype=np.int64))

    def _replay_service(self, epoch: int) -> Zero07Service:
        service = Zero07Service(
            blame_config=self._blame_config,
            vote_policy=self._vote_policy,
            engine="arrays",
        )
        for kind, payload, seqs in self._retained.get(epoch, []):
            events = payload.materialize() if kind == "run" else payload
            service.ingest_batch(events, owned=(kind == "run"))
        return service

    def _materialize(self, epoch: int, final: bool = False) -> EpochReport:
        if self._store.is_clean(epoch):
            tally = self._store.build_tally(epoch, final)
            if tally is not None:
                return self._agent.analyze_tally(epoch, tally)
        self.replayed_epochs += 1
        return self._replay_service(epoch).report(epoch)

    def tick(self, epoch: int) -> None:
        """Close every epoch up to ``epoch``, caching final reports."""
        if self._last_finalized is not None and epoch <= self._last_finalized:
            return
        start = (
            self._last_finalized + 1
            if self._last_finalized is not None
            else min(
                (e for e in self._retained if e <= epoch), default=epoch
            )
        )
        for e in range(start, epoch + 1):
            report = self._materialize(e, final=True)
            self._final_reports[e] = report
            while len(self._final_reports) > self._retain_reports:
                del self._final_reports[next(iter(self._final_reports))]
            self._last_finalized = e
            self.epochs_finalized += 1
            self._store.pop(e)
            self._retained.pop(e, None)
            self._views.pop(e, None)

    def report(self, epoch: Optional[int] = None) -> EpochReport:
        """Final report if closed, else the open epoch's current view.

        While no chunk for the epoch arrived since the previous query the
        identical report object is returned.
        """
        if epoch is None:
            open_epochs = self._retained.keys()
            if open_epochs:
                epoch = max(open_epochs)
            elif self._last_finalized is not None:
                epoch = self._last_finalized
            else:
                epoch = 0
        if epoch in self._final_reports:
            return self._final_reports[epoch]
        if self._last_finalized is not None and epoch <= self._last_finalized:
            raise ReportUnavailableError(
                epoch, self._last_finalized, self._retain_reports
            )
        retained = self._retained.get(epoch)
        if retained is None:
            # nobody sent evidence for this epoch: the empty report, and no
            # state — a polling client must not be able to grow the core.
            return self._materialize(epoch)
        view = self._views.get(epoch)
        if view is None or view[0] != len(retained):
            view = self._views[epoch] = (len(retained), self._materialize(epoch))
        return view[1]

    def describe(self) -> Dict:
        """Mode and analysis shape, for ``meta.json`` and the query socket."""
        return {
            "mode": self.mode,
            "service": "columnar",
            "engine": "arrays",
            "num_shards": 1,
        }

    def close(self) -> None:
        """Nothing to release (no worker processes)."""


# ---------------------------------------------------------------------------
# staging
# ---------------------------------------------------------------------------
class _Lane:
    """A contiguous stretch of chunks ahead of the flushed prefix: parked, and
    in columns mode folded on arrival into ``folded``, a side lane of the core."""

    __slots__ = ("first_seq", "next_seq", "runs", "nbytes", "folded")

    def __init__(self, first_seq: int, folded: Optional[TallyLane]) -> None:
        self.first_seq = self.next_seq = first_seq
        self.runs: List[Tuple[WireRun, Optional[LinkRemap]]] = []
        self.nbytes = 0
        self.folded = folded


class _EpochStage:
    """One open epoch: the flushed prefix's watermark and the lanes ahead of it."""

    __slots__ = ("lanes", "next_seq", "ticked")

    def __init__(self) -> None:
        self.lanes: List[_Lane] = []
        self.next_seq = 0
        self.ticked: set = set()


class _Connection:
    """Per-connection transport state."""

    __slots__ = (
        "writer",
        "decoder",
        "remap",
        "agent_id",
        "acked_bytes",
        "deferred_acks",
        "reader_state",
    )

    def __init__(self, writer) -> None:
        self.writer = writer
        self.decoder = WireDecoder()
        self.remap: Optional[LinkRemap] = None
        self.agent_id: Optional[str] = None
        self.acked_bytes = 0
        self.deferred_acks: List[Tuple[int, int, int]] = []
        self.reader_state = FrameReader()


class FleetAnalyzer:
    """Accepts agent connections and drives one ingest core.

    Use :meth:`run` inside an event loop, or :func:`start_analyzer_thread`
    for a blocking host (tests, the fleet runner's in-process mode).  The
    instance is single-use: once shut down it does not restart.
    """

    def __init__(
        self,
        core,
        expected_agents: int,
        credit_bytes: int = 8 * 1024 * 1024,
        stage_limit_bytes: int = 64 * 1024 * 1024,
        idle_timeout: float = 30.0,
        handshake_timeout: float = 10.0,
    ) -> None:
        if expected_agents < 1:
            raise ValueError("expected_agents must be >= 1")
        self.core = core
        self.expected_agents = expected_agents
        self.credit_bytes = credit_bytes
        self.stage_limit_bytes = stage_limit_bytes
        self.idle_timeout = idle_timeout
        self.handshake_timeout = handshake_timeout
        self.stats = AnalyzerStats()
        #: agent_id -> {"acked": {epoch: seq}, "connects": int, "ticked": int}
        self.agents: Dict[str, Dict] = {}
        self._stages: Dict[int, _EpochStage] = {}
        self._staged_bytes = 0
        self._backpressured = False
        self._connections: List[_Connection] = []
        self._shutdown = asyncio.Event()
        self._servers: List[asyncio.base_events.Server] = []
        self._unix_paths: List[str] = []
        #: epoch -> (report, its encoded reply line); see ``_report_line``.
        self._report_lines: Dict[int, Tuple[EpochReport, bytes]] = {}
        #: report -> its ``view`` token, for as long as the core keeps the
        #: report alive; tokens are never reused.  See ``_view_of``.
        self._view_tokens: "weakref.WeakKeyDictionary[EpochReport, int]" = (
            weakref.WeakKeyDictionary()
        )
        self._views_issued = 0
        #: the report a pager is walking and its flow ids in page order.
        self._paged: Optional[Tuple[EpochReport, List[int]]] = None
        self.bound_endpoint: Optional[Endpoint] = None
        self.bound_query_endpoint: Optional[Endpoint] = None

    # -- lifecycle ----------------------------------------------------
    async def start(
        self, endpoint: Endpoint, query_endpoint: Optional[Endpoint] = None
    ) -> Tuple[Endpoint, Optional[Endpoint]]:
        """Bind the evidence listener (and optionally the query listener).

        Returns the actually-bound endpoints — port 0 resolves to the
        kernel-assigned port, which is how the runner discovers addresses.
        """
        self.bound_endpoint = await self._listen(endpoint, self._serve_agent)
        if query_endpoint is not None:
            self.bound_query_endpoint = await self._listen(
                query_endpoint, self._serve_query
            )
        return self.bound_endpoint, self.bound_query_endpoint

    #: StreamReader buffer bound.  asyncio's 64 KiB default makes
    #: ``reader.read`` return in tiny pieces with flow-control churn on
    #: every boundary; evidence frames run to hundreds of KiB, so give the
    #: reader room to coalesce whole frames per wakeup.
    READ_LIMIT = 8 * 1024 * 1024

    async def _listen(self, endpoint: Endpoint, handler) -> Endpoint:
        if endpoint.kind == "tcp":
            server = await asyncio.start_server(
                handler,
                host=endpoint.host or "127.0.0.1",
                port=endpoint.port,
                limit=self.READ_LIMIT,
            )
            host, port = server.sockets[0].getsockname()[:2]
            bound = Endpoint(kind="tcp", host=host, port=port)
        else:
            server = await asyncio.start_unix_server(
                handler, path=endpoint.path, limit=self.READ_LIMIT
            )
            self._unix_paths.append(endpoint.path)
            bound = endpoint
        self._servers.append(server)
        return bound

    async def run(self) -> None:
        """Serve until :meth:`shutdown` (or a query-socket shutdown)."""
        await self._shutdown.wait()
        for server in self._servers:
            server.close()
            await server.wait_closed()
        for connection in list(self._connections):
            try:
                connection.writer.close()
            except Exception:
                pass
        for path in self._unix_paths:
            try:
                os.unlink(path)
            except OSError:
                pass
        self.core.close()

    def shutdown(self) -> None:
        """Ask :meth:`run` to wind the servers down."""
        self._shutdown.set()

    # -- agent connections --------------------------------------------
    async def _serve_agent(self, reader, writer) -> None:
        self.stats.connections_accepted += 1
        connection = _Connection(writer)
        self._connections.append(connection)
        try:
            await self._agent_loop(reader, connection)
        except (FleetProtocolError, WireProtocolError, PathTooLongError) as exc:
            self.stats.protocol_errors += 1
            await self._send_error(connection, exc)
        except (ConnectionError, asyncio.IncompleteReadError):
            self.stats.protocol_errors += 1
        except asyncio.TimeoutError:
            self.stats.connection_timeouts += 1
        finally:
            self._connections.remove(connection)
            try:
                writer.close()
            except Exception:
                pass

    async def _send_error(self, connection: _Connection, exc: Exception) -> None:
        code = {
            VersionMismatchError: "version-mismatch",
            HandshakeError: "handshake",
            WireProtocolError: "wire",
        }.get(type(exc), "protocol")
        frame = protocol.encode_frame(
            protocol.FRAME_ERROR, protocol.encode_error(code, str(exc))
        )
        try:
            connection.writer.write(frame)
            await asyncio.wait_for(connection.writer.drain(), timeout=2.0)
        except Exception:
            pass  # best-effort courtesy; the close is the real signal

    async def _agent_loop(self, reader, connection: _Connection) -> None:
        frames = self._frame_stream(reader, connection)
        # handshake: the first frame must be a version-matched HELLO.
        frame = await asyncio.wait_for(
            frames.__anext__(), timeout=self.handshake_timeout
        )
        frame_type, payload = frame
        if frame_type != protocol.FRAME_HELLO:
            raise HandshakeError(
                f"expected HELLO as the first frame, got type {frame_type}"
            )
        hello = protocol.decode_hello(payload)
        agent_id = hello["agent_id"]
        connection.agent_id = agent_id
        connection.remap = (
            LinkRemap(connection.decoder, self.core._link_index)
            if isinstance(self.core, ColumnarIngestCore)
            else None
        )
        record = self.agents.setdefault(
            agent_id, {"acked": {}, "connects": 0, "ticks": 0}
        )
        record["connects"] += 1
        record["epoch_watermark"] = hello.get("epoch_watermark", -1)
        self.stats.handshakes += 1
        welcome = protocol.encode_frame(
            protocol.FRAME_WELCOME,
            protocol.encode_welcome(self.credit_bytes, record["acked"]),
        )
        connection.writer.write(welcome)
        await connection.writer.drain()

        while True:
            try:
                frame_type, payload = await asyncio.wait_for(
                    frames.__anext__(), timeout=self.idle_timeout
                )
            except StopAsyncIteration:
                return  # clean EOF at a frame boundary
            self.stats.frames_received += 1
            if frame_type == protocol.FRAME_EVIDENCE:
                await self._on_evidence(connection, payload)
            elif frame_type == protocol.FRAME_TICK:
                self._on_tick(connection, protocol.decode_tick(payload))
                await self._release_deferred_acks()
            elif frame_type == protocol.FRAME_HEARTBEAT:
                self.stats.heartbeats += 1
                connection.writer.write(
                    protocol.encode_frame(protocol.FRAME_HEARTBEAT)
                )
                await connection.writer.drain()
            elif frame_type == protocol.FRAME_BYE:
                return
            elif frame_type == protocol.FRAME_ERROR:
                raise protocol.decode_error(payload)
            else:
                raise FleetProtocolError(
                    f"agent sent unexpected frame type {frame_type}"
                )

    async def _frame_stream(self, reader, connection: _Connection):
        """Yield frames; raise TruncatedFrameError on a mid-frame EOF."""
        frame_reader = connection.reader_state
        while True:
            for frame in frame_reader.frames():
                yield frame
            data = await reader.read(1 << 20)
            if not data:
                frame_reader.close()  # raises if the peer died mid-frame
                return
            self.stats.bytes_received += len(data)
            frame_reader.feed(data)

    # -- evidence staging ---------------------------------------------
    async def _on_evidence(self, connection: _Connection, payload: bytes) -> None:
        run = connection.decoder.decode_columns(payload)
        epoch = run.epoch
        last_finalized = self.core.last_finalized
        if last_finalized is not None and epoch <= last_finalized:
            self.stats.late_chunks += 1
            await self._ack(connection, epoch, run.last_seq, len(payload))
            return
        stage = self._stages.get(epoch)
        if stage is None:
            stage = self._stages[epoch] = _EpochStage()
        self._stage_chunk(stage, run, connection.remap)
        self._flush_ready(epoch, stage)
        if self._backpressured and self._staged_bytes <= self.stage_limit_bytes:
            # a flush drained the backlog: wake the stalled senders now, not
            # at the next tick — they may be blocked on their credit windows.
            await self._release_deferred_acks()
        watermark = run.last_seq
        acked = self.agents[connection.agent_id]["acked"]
        if watermark > acked.get(epoch, -1):
            acked[epoch] = watermark
        if self._staged_bytes > self.stage_limit_bytes:
            if not self._backpressured:
                self._backpressured = True
                self.stats.backpressure_engagements += 1
            self.stats.acks_deferred += 1
            connection.deferred_acks.append((epoch, watermark, len(payload)))
        else:
            await self._ack(connection, epoch, watermark, len(payload))

    def _stage_chunk(
        self, stage: _EpochStage, run: WireRun, remap: Optional[LinkRemap]
    ) -> None:
        self.stats.chunks_staged += 1
        self.stats.evidence_events += run.n_events
        if run.n_events == 0:
            return
        first, last = run.first_seq, run.last_seq
        lanes = stage.lanes
        if last < stage.next_seq or any(
            lane.first_seq <= first and last < lane.next_seq for lane in lanes
        ):
            self.stats.duplicate_chunks += 1  # behind the watermark or in a lane
            return
        if first <= stage.next_seq:
            self._append_chunk(stage, run, remap)
            return
        # ahead of the flushed prefix: continue the lane it extends, else
        # open one; the columns core folds it now, not when the gap closes.
        lane = next((lane for lane in lanes if lane.next_seq == first), None)
        if lane is None:
            lane = _Lane(first, None if remap is None else self.core.open_lane())
            lanes.append(lane)
        if lane.folded is not None:
            self.core.append_chunk(run, remap, lane.folded)
        lane.runs.append((run, remap))
        lane.next_seq = last + 1
        lane.nbytes += run.nbytes
        self._staged_bytes += run.nbytes

    def _append_chunk(self, stage: _EpochStage, run: WireRun, remap) -> None:
        if run.first_seq < stage.next_seq:
            # redelivery overlaps the flushed prefix: trim to fresh events.
            self.stats.trimmed_chunks += 1
            cut = int(np.searchsorted(run.seqs, stage.next_seq))
            events = run.materialize()[cut:]
            if events:
                self.core.append_events(run.epoch, events, run.seqs[cut:])
        else:
            self.core.append_chunk(run, remap)
        self.stats.chunks_flushed += 1
        if run.last_seq >= stage.next_seq:
            stage.next_seq = run.last_seq + 1

    def _flush_ready(self, epoch: int, stage: _EpochStage, barrier: bool = False) -> None:
        """Join the lanes the flushed prefix has reached — at the tick
        barrier every lane, each behind a gap (the others joined already), in
        the order they opened: the votes add up the same."""
        lanes = stage.lanes
        while lanes:
            lane = next(
                (lane for lane in lanes if barrier or lane.first_seq <= stage.next_seq),
                None,
            )
            if lane is None:
                return
            lanes.remove(lane)
            self._staged_bytes -= lane.nbytes
            if lane.folded is not None:
                self.core.join_lane(epoch, lane.folded, [run for run, _ in lane.runs])
            elif barrier:  # behind a gap: nothing to trim it against
                for run, remap in lane.runs:
                    self.core.append_chunk(run, remap)
            else:
                for run, remap in lane.runs:
                    self._append_chunk(stage, run, remap)
                continue
            self.stats.chunks_flushed += len(lane.runs)
            stage.next_seq = max(stage.next_seq, lane.next_seq)

    def _on_tick(self, connection: _Connection, epoch: int) -> None:
        self.stats.ticks_received += 1
        self.agents[connection.agent_id]["ticks"] += 1
        last_finalized = self.core.last_finalized
        if last_finalized is not None and epoch <= last_finalized:
            return  # re-tick after reconnect: already closed, idempotent
        stage = self._stages.get(epoch)
        if stage is None:
            stage = self._stages[epoch] = _EpochStage()
        stage.ticked.add(connection.agent_id)
        if len(stage.ticked) < self.expected_agents:
            return
        # barrier complete: every expected agent ticked, so (per-connection
        # FIFO) every chunk of this and every earlier epoch has arrived.
        for e in sorted(e for e in self._stages if e <= epoch):
            self._flush_ready(e, self._stages.pop(e), barrier=True)
        self.core.tick(epoch)
        self.stats.epochs_finalized = self.core.epochs_finalized

    async def _ack(
        self, connection: _Connection, epoch: int, seq: int, nbytes: int
    ) -> None:
        connection.acked_bytes += nbytes
        connection.writer.write(
            protocol.encode_frame(
                protocol.FRAME_ACK,
                protocol.encode_ack(epoch, seq, connection.acked_bytes),
            )
        )
        await connection.writer.drain()

    async def _release_deferred_acks(self) -> None:
        if self._staged_bytes > self.stage_limit_bytes:
            return
        self._backpressured = False
        for connection in self._connections:
            while connection.deferred_acks:
                epoch, seq, nbytes = connection.deferred_acks.pop(0)
                try:
                    await self._ack(connection, epoch, seq, nbytes)
                except Exception:
                    break  # the reconnect path re-acks via WELCOME watermarks

    # -- query socket --------------------------------------------------
    #: reply lines kept for repeated ``report`` queries: the open epochs a
    #: dashboard polls plus the last closed ones.  A line is O(links) — 56 KB
    #: on the 1 664-link ``medium`` fabric — and each entry also keeps its
    #: report, tally included, alive; oldest entry out first.
    REPORT_LINES_KEPT = 4

    async def _serve_query(self, reader, writer) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # no newline within READ_LIMIT bytes
                    error = f"query line longer than {self.READ_LIMIT} bytes"
                    await self._send_reply(
                        writer, _reply_line({"ok": False, "error": error})
                    )
                    return
                if not line:
                    return
                await self._send_reply(writer, self._answer(line))
                if self._shutdown.is_set():
                    return
        except ConnectionError:
            return
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _send_reply(self, writer, reply: bytes) -> None:
        self.stats.query_bytes_sent += len(reply)
        writer.write(reply)
        await writer.drain()

    def _answer(self, line: bytes) -> bytes:
        """The reply line for one request line; errors become error replies."""
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("a query must be a JSON object")
            if request.get("cmd") == "report":
                # counted before its arguments are checked: a rejected query
                # is one of the error replies the counters add up with.
                self.stats.report_queries += 1
                return self._report_line(_epoch_argument(request, "report"))
            response = self._handle_query(request)
        except Exception as exc:  # malformed request → error reply
            response = {"ok": False, "error": str(exc)}
        return _reply_line(response)

    def _view_of(self, report: EpochReport) -> int:
        """The ``view`` token of ``report``: equal across replies iff
        ``core.report`` returned the identical object for them, which is
        how a pager notices that an open epoch moved between two pages."""
        view = self._view_tokens.get(report)
        if view is None:
            self._views_issued += 1
            view = self._view_tokens[report] = self._views_issued
        return view

    def _report_line(self, epoch: Optional[int]) -> bytes:
        """The ``report`` reply, encoded once per distinct report object.

        Every core returns the identical report while nothing changed for
        the epoch, so a line is reusable exactly as long as ``core.report``
        keeps returning the object it was encoded from.  The entry holds
        that object, so its identity cannot be recycled under the line.
        """
        lines = self._report_lines
        try:
            report = self.core.report(epoch)
        except ReportUnavailableError as exc:
            lines.pop(epoch, None)
            return _reply_line({"ok": False, "error": str(exc)})
        entry = lines.get(report.epoch)
        if entry is not None and entry[0] is report:
            self.stats.report_view_hits += 1
            return entry[1]
        # release the superseded report and its line before building the next
        lines.pop(report.epoch, None)
        line = _reply_line(
            {
                "ok": True,
                "report": report_to_json(report),
                "view": self._view_of(report),
            }
        )
        self.stats.reports_encoded += 1
        if report.num_paths_analyzed:
            # an empty report is cheap to encode and may be for an epoch
            # nobody ever sent evidence for: keep nothing for those.
            lines[report.epoch] = (report, line)
            if len(lines) > self.REPORT_LINES_KEPT:
                del lines[next(iter(lines))]
        return line

    def _flows(self, request: Dict) -> Dict:
        """The ``flows`` reply: what ``report`` leaves out, for given
        connections (``ids``) or one page of all of them in flow-id order.

        Reading the per-flow fields derives them once per report; every
        entry is ``[flow id, culprit link or null, is noise, is failure]``
        (a re-traced flow can be both; an unknown id is neither).
        """
        epoch = _epoch_argument(request, "flows")
        ids = None
        if "ids" in request:
            ids = request["ids"]
            if "offset" in request or "limit" in request:
                raise ValueError("flows takes ids or offset/limit, not both")
            if not isinstance(ids, list) or any(type(i) is not int for i in ids):
                raise ValueError("flows ids must be a list of integers")
            if len(ids) > FLOWS_PAGE_LIMIT:
                raise ValueError(f"flows takes at most {FLOWS_PAGE_LIMIT} ids")
        else:
            offset = _count_argument(request, "offset", 0)
            limit = _count_argument(request, "limit", FLOWS_PAGE_LIMIT)
        report = self.core.report(epoch)
        reply = {"ok": True, "epoch": report.epoch, "view": self._view_of(report)}
        noise, causes = report.noise, report.flow_causes
        if ids is None:
            paged = self._paged
            if paged is None or paged[0] is not report:
                paged = self._paged = (
                    report,
                    sorted(noise.noise_flows | noise.failure_flows),
                )
            ids = paged[1][offset : offset + min(limit, FLOWS_PAGE_LIMIT)]
            reply["offset"] = offset
            reply["total"] = len(paged[1])
        reply["flows"] = [
            [
                flow,
                str(causes[flow]) if flow in causes else None,
                flow in noise.noise_flows,
                flow in noise.failure_flows,
            ]
            for flow in ids
        ]
        return reply

    def _handle_query(self, request: Dict) -> Dict:
        command = request.get("cmd")
        if command == "ping":
            return {"ok": True, "pong": True}
        if command == "flows":
            self.stats.flows_queries += 1
            return self._flows(request)
        if command == "stats":
            return {
                "ok": True,
                "stats": self.stats.as_dict(),
                "agents": {
                    agent_id: {
                        "connects": record["connects"],
                        "ticks": record["ticks"],
                        "acked": {
                            str(epoch): seq
                            for epoch, seq in record["acked"].items()
                        },
                    }
                    for agent_id, record in self.agents.items()
                },
                "staged_bytes": self._staged_bytes,
                "last_finalized": self.core.last_finalized,
                **self.core.counters(),
            }
        if command == "describe":
            description = self.core.describe()
            description.update(
                {
                    "protocol_version": protocol.FLEET_PROTOCOL_VERSION,
                    # 2: ``report`` carries the link verdict only, per-flow
                    # attribution moved to the ``flows`` verb.
                    "query_version": 2,
                    "expected_agents": self.expected_agents,
                    "credit_bytes": self.credit_bytes,
                }
            )
            return {"ok": True, "describe": description}
        if command == "shutdown":
            self.shutdown()
            return {"ok": True, "shutdown": True}
        raise ValueError(f"unknown query command {command!r}")


# ---------------------------------------------------------------------------
# blocking host helper
# ---------------------------------------------------------------------------
class AnalyzerThread:
    """Run a :class:`FleetAnalyzer` on a dedicated event-loop thread.

    The constructor blocks until the listeners are bound, so the caller can
    read :attr:`endpoint` / :attr:`query_endpoint` immediately.  ``stop()``
    is idempotent and joins the thread.
    """

    def __init__(
        self,
        analyzer: FleetAnalyzer,
        endpoint: Endpoint,
        query_endpoint: Optional[Endpoint] = None,
    ) -> None:
        import threading

        self.analyzer = analyzer
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self.endpoint: Optional[Endpoint] = None
        self.query_endpoint: Optional[Endpoint] = None

        def main() -> None:
            try:
                asyncio.run(self._run(endpoint, query_endpoint))
            except BaseException as exc:  # surface bind errors to the caller
                self._error = exc
                self._ready.set()

        self._thread = threading.Thread(
            target=main, name="fleet-analyzer", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            raise self._error

    async def _run(self, endpoint, query_endpoint) -> None:
        self._loop = asyncio.get_running_loop()
        bound, query_bound = await self.analyzer.start(endpoint, query_endpoint)
        self.endpoint = bound
        self.query_endpoint = query_bound
        self._ready.set()
        await self.analyzer.run()

    def stop(self, timeout: float = 10.0) -> None:
        """Shut the analyzer down and join its thread."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.analyzer.shutdown)
        self._thread.join(timeout)
