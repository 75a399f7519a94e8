"""The fleet analyzer: an asyncio front-end over one streaming service.

One process accepts N agent connections (TCP or Unix sockets) and admits
every evidence chunk the moment it is decoded, in whatever order the
connections deliver: :class:`ServiceIngestCore` hands the chunk's
:class:`~repro.api.wire.WireRun` columns, link ids remapped onto the
service's index (:class:`~repro.api.wire.LinkRemap`), to
:meth:`Zero07Service.ingest_columns
<repro.api.service.Zero07Service.ingest_columns>` — no per-event objects,
no staging.  Integer vote units make the fold order-free, so a chunk that
lands ahead of a gap in the sequence space is an ordinary late run, and a
report covers every chunk that has arrived.

An epoch closes at its tick barrier: once every expected agent ticked it,
per-connection FIFO order guarantees all of its chunks are in, and the
service finalizes it.  Redelivered chunks after a reconnect are dropped by
the service's per-epoch seen sequence numbers, whole or in part
(``duplicate_chunks`` / ``trimmed_chunks``) — at-least-once delivery with
exactly-once effect — and the analyzer state is the service's, so
``core.service.checkpoint()`` captures it and a restored service resumes it.

Flow control: each connection gets a byte credit window in its WELCOME and
every chunk is acked (with the epoch/seq watermark and cumulative bytes)
once it is admitted, so an agent never has more than the window in flight.
"""

from __future__ import annotations

import asyncio
import json
import os
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api.events import EpochTick
from repro.api.service import ReportUnavailableError, Zero07Service
from repro.api.wire import LinkRemap, WireDecoder, WireProtocolError, WireRun
from repro.core.analysis import EpochReport
from repro.core.arrays import LinkIndex
from repro.core.votes import PathTooLongError
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
    #: chunks of open epochs admitted into the core, and of those the ones
    #: whose events were all (``duplicate``) or partly (``trimmed``) seen.
    chunks_admitted: int = 0
    duplicate_chunks: int = 0
    trimmed_chunks: int = 0
    late_chunks: int = 0
    ticks_received: int = 0
    epochs_finalized: int = 0
    protocol_errors: int = 0
    connection_timeouts: int = 0
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
    """Admit decoded chunks into one :class:`Zero07Service`, on arrival.

    The service takes each chunk's columns as they are
    (:meth:`~repro.api.service.Zero07Service.ingest_columns`), link ids
    remapped onto its index, and drops what its epoch saw before, so the
    analyzer hands every chunk over in arrival order and keeps nothing.
    """

    def __init__(self, service: Zero07Service) -> None:
        self.service = service
        self._finalized = _FinalizedCount()
        service.add_sink(self._finalized)
        #: ``id`` of a decoder's link table -> its remap, for chunks handed
        #: over without one (the remap keeps the table, so the id is unique).
        self._remaps: Dict[int, LinkRemap] = {}

    @property
    def last_finalized(self) -> Optional[int]:
        """The newest epoch the service has closed."""
        return self.service.last_finalized_epoch

    @property
    def epochs_finalized(self) -> int:
        """Epochs this core's ticks closed, gap epochs included."""
        return self._finalized.count

    def remap(self, decoder: WireDecoder) -> LinkRemap:
        """One connection's link ids onto the service's index."""
        return LinkRemap(decoder, self.service.link_index)

    def append_chunk(self, run: WireRun, remap: Optional[LinkRemap]) -> int:
        """Admit one chunk, in any order; returns how many of its events
        the epoch saw before.  Without ``remap`` the core keeps one per
        decoder table."""
        if remap is None:
            remap = self._remaps.get(id(run.links_table))
            if remap is None:
                remap = self._remaps[id(run.links_table)] = LinkRemap(
                    run, self.service.link_index
                )
        return self.service.ingest_columns(
            run.epoch, run.columns(), remap.ids(run.lids)
        )

    def tick(self, epoch: int) -> None:
        """Close ``epoch`` (and any gap epochs before it)."""
        self.service.ingest(EpochTick(epoch))

    def report(self, epoch: Optional[int] = None) -> EpochReport:
        """The service's report for ``epoch`` (mid-epoch queries included).

        The service returns the identical object while no evidence for the
        epoch arrived, which is what the query socket's line cache keys on.
        """
        return self.service.report(epoch)

    def describe(self) -> Dict:
        """Service shape, for ``meta.json`` and the query socket."""
        return {
            "service": type(self.service).__name__,
            "engine": self.service.engine,
        }


class ColumnarIngestCore(ServiceIngestCore):
    """A :class:`ServiceIngestCore` over a plain arrays
    :class:`Zero07Service`: the name (and ``_link_index``) the ruler's
    ``fleet_tcp`` in-process replay builds its chain with."""

    def __init__(self) -> None:
        super().__init__(Zero07Service(engine="arrays"))

    @property
    def _link_index(self) -> LinkIndex:
        return self.service.link_index


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------
class _Connection:
    """Per-connection transport state."""

    __slots__ = (
        "writer",
        "decoder",
        "remap",
        "agent_id",
        "acked_bytes",
        "reader_state",
    )

    def __init__(self, writer) -> None:
        self.writer = writer
        self.decoder = WireDecoder()
        self.remap: Optional[LinkRemap] = None
        self.agent_id: Optional[str] = None
        self.acked_bytes = 0
        self.reader_state = FrameReader()


class FleetAnalyzer:
    """Accepts agent connections and drives one ingest core.

    Use :meth:`run` inside an event loop, or an :class:`AnalyzerThread` for
    a blocking host (the tests).  The instance is single-use: once shut down
    it does not restart.
    """

    def __init__(
        self,
        core,
        expected_agents: int,
        credit_bytes: int = 8 * 1024 * 1024,
        idle_timeout: float = 30.0,
        handshake_timeout: float = 10.0,
    ) -> None:
        if expected_agents < 1:
            raise ValueError("expected_agents must be >= 1")
        self.core = core
        self.expected_agents = expected_agents
        self.credit_bytes = credit_bytes
        self.idle_timeout = idle_timeout
        self.handshake_timeout = handshake_timeout
        self.stats = AnalyzerStats()
        #: agent_id -> {"acked": {epoch: seq}, "connects": int, "ticked": int}
        self.agents: Dict[str, Dict] = {}
        #: open epoch -> the agents that ticked it.
        self._ticked: Dict[int, set] = {}
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
        connection.remap = self.core.remap(connection.decoder)
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

    # -- evidence -----------------------------------------------------
    async def _on_evidence(self, connection: _Connection, payload: bytes) -> None:
        run = connection.decoder.decode_columns(payload)
        epoch, stats = run.epoch, self.stats
        last_finalized = self.core.last_finalized
        if last_finalized is not None and epoch <= last_finalized:
            stats.late_chunks += 1
            await self._ack(connection, epoch, run.last_seq, len(payload))
            return
        stats.evidence_events += run.n_events
        if run.n_events:
            stats.chunks_admitted += 1
            seen = self.core.append_chunk(run, connection.remap)
            if seen == run.n_events:
                stats.duplicate_chunks += 1
            elif seen:
                stats.trimmed_chunks += 1
        acked = self.agents[connection.agent_id]["acked"]
        if run.last_seq > acked.get(epoch, -1):
            acked[epoch] = run.last_seq
        await self._ack(connection, epoch, run.last_seq, len(payload))

    def _on_tick(self, connection: _Connection, epoch: int) -> None:
        self.stats.ticks_received += 1
        self.agents[connection.agent_id]["ticks"] += 1
        last_finalized = self.core.last_finalized
        if last_finalized is not None and epoch <= last_finalized:
            return  # re-tick after reconnect: already closed, idempotent
        ticked = self._ticked.setdefault(epoch, set())
        ticked.add(connection.agent_id)
        if len(ticked) < self.expected_agents:
            return
        # barrier complete: every expected agent ticked, so (per-connection
        # FIFO) every chunk of this and every earlier epoch has arrived.
        for closed in [e for e in self._ticked if e <= epoch]:
            del self._ticked[closed]
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
                "last_finalized": self.core.last_finalized,
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
