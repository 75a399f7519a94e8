"""The event-driven 007 analysis service.

:class:`Zero07Service` is the always-on core the rest of the system is built
around: evidence events (:mod:`repro.api.events`) are *ingested* one at a
time or in batches, an **incremental vote tally** is maintained per open epoch
with O(changed-flows) work (each path costs one ``add_flow``, each repeat
retransmission an O(1) bump — on both the dict and the array engine), and an
:class:`~repro.core.analysis.EpochReport` can be *materialized on demand* at
any moment — including mid-epoch, before the epoch's tick arrives.  Reports
are bit-identical to the legacy batch loop, which consumed the discovered
paths in sequence order: the tally's rows are the record of arrival (every
admitted path is appended, in or out of order), votes are integer units
whose sums do not depend on that order, and a flow traced more than once is
bound to its highest-seq record — so no report has to put the rows in
sequence order first.

Three protocols define the system boundary:

* :class:`EvidenceSource` — anything that yields evidence events
  (the monitoring bridge, a replay log, a network receiver).
* ``Zero07Service`` — ``ingest`` / ``ingest_batch`` / ``report`` /
  ``checkpoint``.
* :class:`ReportSink` — observers notified with every finalized epoch report
  (aggregators, detection scorers, loggers, alerting).

Epoch lifecycle: evidence opens an epoch implicitly; an
:class:`~repro.api.events.EpochTick` finalizes every open epoch up to and
including the ticked one — the final report is materialized once, pushed to
every sink, cached (bounded by ``retain_reports``) and the epoch's evidence
buffers are released, so a long-running service holds O(open epochs) state,
not O(history).
"""

from __future__ import annotations

import dataclasses
import operator
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.api.checkpoint import (
    CHECKPOINT_VERSION,
    COLUMN_DTYPES,
    DIFF_COLUMNS,
    IDENTITY_COLUMNS,
    Checkpoint,
    CheckpointColumns,
    ColumnsBuilder,
    EpochColumns,
    blame_from_dict,
    blame_to_dict,
    decode_paths,
    delta_rows,
    encode_identity,
    epoch_columns,
    payload_fingerprint,
    take_rows,
)
from repro.api.events import (
    EpochTick,
    Evidence,
    PathEvidence,
    RetransmissionEvidence,
)
from repro.api.wire import (
    aggregate_updates,
    bind_updates,
    bulk_admissible,
    run_columns,
    seqs_of,
)
from repro.core.analysis import AnalysisAgent, EngineKind, EpochReport
from repro.core.arrays import ArrayVoteTally, ItemIndex, LinkIndex
from repro.core.blame import BlameConfig
from repro.core.votes import VotePolicy, VoteTally, check_hop_counts
from repro.discovery.agent import DiscoveredPath


class ReportUnavailableError(KeyError):
    """``report(epoch)`` was asked for a finalized epoch outside retention.

    The epoch was already finalized (its sinks saw the report at tick time)
    and its cached report has since been evicted by the ``retain_reports``
    window — the service no longer holds the evidence to re-materialize it.
    The attributes name the epoch, the service's finalization progress and
    the retention window, so callers can size ``retain_reports`` or fall
    back to their report log.
    """

    def __init__(
        self, epoch: int, last_finalized: int, retain_reports: int
    ) -> None:
        super().__init__(
            f"epoch {epoch} is closed (last finalized epoch {last_finalized}) "
            f"and its report left the retention window "
            f"(retain_reports={retain_reports} keeps only the most recent "
            "finalized reports)"
        )
        self.epoch = epoch
        self.last_finalized = last_finalized
        self.retain_reports = retain_reports


# ----------------------------------------------------------------------
# protocols
# ----------------------------------------------------------------------
@runtime_checkable
class EvidenceSource(Protocol):
    """Anything that can yield a stream of evidence events."""

    def events(self) -> Iterable[Evidence]:
        """The evidence events, in emission order."""
        ...


@runtime_checkable
class ReportSink(Protocol):
    """Observer notified with every finalized epoch report."""

    def on_report(self, report: EpochReport) -> None:
        """Called exactly once per finalized epoch, in epoch order."""
        ...


class CallbackSink:
    """A :class:`ReportSink` wrapping a plain callable."""

    def __init__(self, callback: Callable[[EpochReport], None]) -> None:
        self._callback = callback

    def on_report(self, report: EpochReport) -> None:
        """Forward the report to the wrapped callable."""
        self._callback(report)


class DetectionLogSink:
    """Collects ``(epoch, detected_links)`` rows — a minimal alerting log."""

    def __init__(self) -> None:
        self.rows: List[Tuple[int, list]] = []

    def on_report(self, report: EpochReport) -> None:
        """Record the epoch's detections."""
        self.rows.append((report.epoch, list(report.detected_links)))

    @property
    def epochs_with_detections(self) -> int:
        """Number of finalized epochs that flagged at least one link."""
        return sum(1 for _, links in self.rows if links)


# ----------------------------------------------------------------------
# service state
# ----------------------------------------------------------------------
@dataclass
class ServiceStats:
    """Counters describing what the service ingested and produced."""

    paths_ingested: int = 0
    retransmission_updates: int = 0
    ticks: int = 0
    duplicate_events: int = 0
    out_of_order_events: int = 0
    late_events: int = 0
    #: events of a bulk-sized (>= 8 events) run that left the vector path
    #: and were replayed one at a time.
    fallback_events: int = 0
    reports_materialized: int = 0
    epochs_finalized: int = 0

    def reset(self) -> None:
        """Reset every counter to its field default."""
        for spec in dataclasses.fields(self):
            setattr(self, spec.name, spec.default)

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (checkpoint payload)."""
        return dataclasses.asdict(self)


#: the identity cargo of no rows.
_NO_CARGO: EpochColumns = encode_identity([], ItemIndex())

#: a bulk run at least this long folds the tally as it lands, so the tick finds
#: nothing to catch up on.  A fold costs ~50 us plus ~0.1 us a row: four 400-row
#: folds take 376 us where the report after them folds the 1 600 rows in 205
#: (``operator_trickle``'s 512-event deliveries read 2-5 % slower folded singly).
_EAGER_FOLD_EVENTS = 2048


class _EpochState:
    """The live incremental tally of one open epoch and what it does not hold.

    The tally's rows are the record of arrival *and* the only holder of what
    the analysis reads (flow id, hop ids, retransmission count, sequence
    number): every admitted path is appended to it, in sequence order or
    not.  Beside it the service keeps, row for row, the record's *identity
    cargo* — five-tuple, hosts, ``complete``, path epoch, which only a
    checkpoint or ``evidence_for_epoch`` ever asks for: rows ``[0, k)`` as
    :data:`~repro.api.checkpoint.IDENTITY_COLUMNS` over the service's name
    table (``cargo``), rows ``[k, n)`` as bare references to the path
    objects as they arrived (``refs``), columnized the first time somebody
    needs them and never again.
    """

    __slots__ = (
        "cargo",
        "refs",
        "names",
        "seqs",
        "retransmission_seqs",
        "tally",
        "last_seq",
        "max_seq",
        "pending_retransmissions",
        "mutations",
        "cached_report",
        "cached_at",
    )

    def __init__(self, tally, names: ItemIndex) -> None:
        #: identity columns of the first rows; the arrays are never written
        #: in place, so checkpoints share them (and a restore's are adopted).
        self.cargo: EpochColumns = _NO_CARGO
        #: the path objects of the remaining rows.  Only their identity
        #: fields are ever read, and nothing is ever written to them.
        self.refs: List[DiscoveredPath] = []
        #: the service's name table (``cargo``'s host/address ids index it).
        self.names = names
        #: seen sequence numbers (duplicate-delivery suppression).
        self.seqs: set = set()
        #: the subset of ``seqs`` consumed by retransmission updates (their
        #: effect lives in the rows' counts, so checkpoints persist the ids).
        self.retransmission_seqs: set = set()
        #: the live tally; always holds every record, row for row.
        self.tally = tally
        #: highest *path* sequence number seen so far.
        self.last_seq = -1
        #: highest sequence number seen by *any* event kind (paths and
        #: retransmission updates share the space); the batched fast path
        #: uses it to prove a whole batch is duplicate-free in O(1).
        self.max_seq = -1
        #: retransmission updates that arrived before their flow's path.
        self.pending_retransmissions: Dict[int, int] = {}
        #: change watermark: bumped by every ingest that can alter a report
        #: (new paths, applied count updates).  The epoch's materialized view
        #: — the last mid-epoch report — is cached together with the
        #: watermark it was computed at, so a query that lands with no rows
        #: touched since the previous query returns the cached report
        #: outright instead of re-running the analysis.
        self.mutations = 0
        self.cached_report: Optional[EpochReport] = None
        self.cached_at = -1

    def bump_flow(self, flow_id: int, extra: int) -> None:
        """Add ``extra`` retransmissions to the flow's highest-seq record.

        Buffered in ``pending_retransmissions`` while the flow has no path.
        """
        if self.tally.row_of_flow(flow_id) is None:
            self.pending_retransmissions[flow_id] = (
                self.pending_retransmissions.get(flow_id, 0) + extra
            )
        else:
            self.tally.bump_retransmissions(flow_id, extra)
            self.mutations += 1

    def identity_columns(self) -> EpochColumns:
        """Every row's identity cargo as columns (``refs`` are columnized)."""
        if self.refs:
            fresh = encode_identity(self.refs, self.names)
            self.cargo = {
                name: np.concatenate((self.cargo[name], col))
                for name, col in fresh.items()
            }
            self.refs = []
        return self.cargo


def iter_evidence_runs(events: List[Evidence]):
    """Segment an event list into maximal single-epoch evidence runs.

    Yields ``("run", epoch, run)`` for each maximal stretch of consecutive
    :class:`PathEvidence`/:class:`RetransmissionEvidence` events sharing one
    epoch, and ``("event", None, [event])`` for everything else (ticks,
    unknown kinds).  Shared by :meth:`Zero07Service.ingest_batch` and
    :meth:`~repro.api.sharded.ShardedService.ingest_batch`, so the two ingest
    facades can never diverge on what constitutes a batchable run.
    """
    total = len(events)
    start = 0
    while start < total:
        event = events[start]
        kind = type(event)
        if kind is PathEvidence or kind is RetransmissionEvidence:
            stop = start + 1
            epoch = event.epoch
            while stop < total:
                nxt = type(events[stop])
                if (
                    nxt is not PathEvidence
                    and nxt is not RetransmissionEvidence
                ) or events[stop].epoch != epoch:
                    break
                stop += 1
            yield "run", epoch, events[start:stop]
            start = stop
        else:
            yield "event", None, [event]
            start += 1


class Zero07Service:
    """The streaming 007 analysis service.

    Parameters
    ----------
    blame_config, vote_policy, engine, attribute_noise_flows:
        Analysis configuration, with the same semantics (and defaults) as
        :class:`~repro.core.analysis.AnalysisAgent`.
    sinks:
        :class:`ReportSink` observers notified with every finalized report.
    retain_reports:
        How many finalized :class:`EpochReport`s to keep addressable through
        :meth:`report`; older ones are evicted (their sinks already saw them).
    link_index:
        Optional pre-populated :class:`~repro.core.arrays.LinkIndex` shared
        with other components (arrays engine only).
    """

    def __init__(
        self,
        blame_config: Optional[BlameConfig] = None,
        vote_policy: VotePolicy = "inverse_hops",
        engine: EngineKind = "arrays",
        attribute_noise_flows: bool = False,
        sinks: Sequence[ReportSink] = (),
        retain_reports: int = 8,
        link_index: Optional[LinkIndex] = None,
    ) -> None:
        if retain_reports < 1:
            raise ValueError("retain_reports must be >= 1")
        self._blame_config = blame_config or BlameConfig()
        self._vote_policy: VotePolicy = vote_policy
        self._attribute_noise_flows = attribute_noise_flows
        self._retain_reports = retain_reports
        self._link_index = link_index if link_index is not None else LinkIndex()
        self._agent = AnalysisAgent(
            blame_config=self._blame_config,
            vote_policy=vote_policy,
            attribute_noise_flows=attribute_noise_flows,
            engine=engine,
            link_index=self._link_index,
        )
        self._sinks: List[ReportSink] = list(sinks)
        #: host names and addresses, interned for the epochs' identity cargo.
        self._names = ItemIndex()
        self._epochs: Dict[int, _EpochState] = {}
        #: finalized reports, insertion-ordered, bounded by retain_reports.
        self._final_reports: Dict[int, EpochReport] = {}
        self._last_finalized: Optional[int] = None
        self._max_epoch_seen: Optional[int] = None
        self.stats = ServiceStats()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def agent(self) -> AnalysisAgent:
        """The analysis agent reports are materialized with."""
        return self._agent

    @property
    def engine(self) -> EngineKind:
        """The analysis engine backing the incremental tallies."""
        return self._agent.engine

    @property
    def blame_config(self) -> BlameConfig:
        """The Algorithm 1 configuration."""
        return self._blame_config

    @property
    def link_index(self) -> LinkIndex:
        """The persistent link interner (arrays engine)."""
        return self._link_index

    @property
    def current_epoch(self) -> Optional[int]:
        """The most advanced epoch the service has seen evidence or ticks for."""
        return self._max_epoch_seen

    @property
    def last_finalized_epoch(self) -> Optional[int]:
        """The highest epoch closed by a tick (``None`` before the first).

        Transports use this to drop redelivered evidence for epochs whose
        final report already shipped instead of paying the late-event path
        per event.
        """
        return self._last_finalized

    @property
    def open_epochs(self) -> List[int]:
        """Epochs with buffered evidence that were not finalized yet."""
        return sorted(self._epochs)

    @property
    def sinks(self) -> List[ReportSink]:
        """The registered report sinks."""
        return list(self._sinks)

    def add_sink(self, sink: ReportSink) -> None:
        """Register a sink for future finalized reports."""
        self._sinks.append(sink)

    def remove_sink(self, sink: ReportSink) -> None:
        """Unregister a sink (no-op when it was never added)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    def evidence_for_epoch(self, epoch: int) -> List[Tuple[int, DiscoveredPath]]:
        """The open epoch's ``(seq, path)`` records in sequence order.

        Returns an empty list for unknown/finalized epochs.  An edge, not a
        view: the paths are built fresh on every call from the tally's
        current hops and counts and the records' identity cargo, so nothing
        done to them reaches the service.
        """
        state = self._epochs.get(epoch)
        if state is None:
            return []
        tables = CheckpointColumns({}, self._names.items, self._link_index.items)
        records = zip(*decode_paths(self._epoch_columns(state), tables))
        return sorted(records, key=operator.itemgetter(0))

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, event: Evidence) -> None:
        """Ingest one evidence event (path, retransmission update, or tick)."""
        if isinstance(event, PathEvidence):
            self._ingest_path(event)
        elif isinstance(event, RetransmissionEvidence):
            self._ingest_retransmission(event)
        elif isinstance(event, EpochTick):
            self._ingest_tick(event)
        else:
            raise TypeError(f"not an evidence event: {event!r}")

    def ingest_batch(self, events: Iterable[Evidence], owned: bool = False) -> None:
        """Ingest many evidence events in order.

        Homogeneous runs (consecutive events of one kind for one epoch, in
        strictly increasing sequence order — exactly what the monitoring
        bridge, the load generator and checkpoint replays emit) take a
        vectorized fast path: path runs update the tally with one bulk
        ``add_flows`` call instead of per-event dispatch, and retransmission
        runs are aggregated per flow with numpy so the tally is bumped once
        per *changed flow*, not once per event.  Any batch that violates the
        fast path's preconditions (duplicates, reordering, pending state)
        falls back to the event-at-a-time path — results are bit-identical
        either way, only the speed differs.

        ``owned`` is accepted and both values do the same thing: what the
        analysis reads of a path (flow id, links, count) is written into the
        tally's columns at ingest — that *is* the defensive copy — and the
        service never writes to a path object, so a source may keep bumping
        its ``DiscoveredPath.retransmissions`` in place (as the monitoring
        agent's cache does) whether it declared a hand-over or not.
        """
        if "ingest" in self.__dict__:
            # ``ingest`` was wrapped on the instance (EvidenceRecorder taps
            # it to capture the stream) — every event must flow through the
            # wrapper, so the fast path would silently bypass the tap.
            for event in events:
                self.ingest(event)
            return
        events = events if isinstance(events, list) else list(events)
        total = len(events)
        if total >= 8:
            # Common shape: one epoch's evidence, optionally ending with its
            # tick.  Both checks run through C iterators — EpochTick has no
            # ``seq``, so a single attrgetter pass proves "evidence only".
            tail = 1 if type(events[-1]) is EpochTick else 0
            body = events[:-1] if tail else events
            try:
                seqs = seqs_of(body)
                epochs = np.fromiter(
                    map(operator.attrgetter("epoch"), body),
                    dtype=np.int64,
                    count=len(body),
                )
            except (AttributeError, TypeError):
                pass  # ticks mid-batch: segment below
            else:
                epoch = int(epochs[0])
                if int(epochs[-1]) == epoch and bool((epochs == epoch).all()):
                    self._ingest_evidence_run(epoch, body, seqs)
                    if tail:
                        self.ingest(events[-1])
                    return
        for kind, epoch, chunk in iter_evidence_runs(events):
            if kind == "run":
                self._ingest_evidence_run(epoch, chunk)
            else:
                self.ingest(chunk[0])

    def ingest_run(
        self,
        epoch: int,
        run: List[Evidence],
        owned: bool = False,
        seqs: Optional[np.ndarray] = None,
    ) -> None:
        """Hand one single-epoch evidence run straight to the batched core.

        The hand-off hook for transports that already segmented the stream
        (the process-backed shard executor decodes wire batches into exactly
        one epoch's run, sequence numbers included): skips the segmentation
        scan of :meth:`ingest_batch` and reuses the caller's ``seqs`` array.
        Semantics are identical to ``ingest_batch(run)`` for a run that
        contains no ticks and spans a single epoch (``owned``: see there).
        """
        if "ingest" in self.__dict__:
            for event in run:
                self.ingest(event)
            return
        self._ingest_evidence_run(epoch, run, seqs)

    def consume(self, source: EvidenceSource, owned: bool = False) -> None:
        """Drain an :class:`EvidenceSource` into the service (``owned``: see
        :meth:`ingest_batch`)."""
        self.ingest_batch(source.events(), owned=owned)

    def _seen_epoch(self, epoch: int) -> None:
        if self._max_epoch_seen is None or epoch > self._max_epoch_seen:
            self._max_epoch_seen = epoch

    def _is_late(self, epoch: int) -> bool:
        if self._last_finalized is not None and epoch <= self._last_finalized:
            self.stats.late_events += 1
            return True
        return False

    def _state(self, epoch: int) -> _EpochState:
        state = self._epochs.get(epoch)
        if state is None:
            state = _EpochState(self._new_tally(), self._names)
            self._epochs[epoch] = state
        return state

    def _new_tally(self):
        if self.engine == "arrays":
            return ArrayVoteTally(policy=self._vote_policy, index=self._link_index)
        return VoteTally(policy=self._vote_policy)

    def _ingest_path(self, event: PathEvidence) -> None:
        path = event.path
        # before the seq is marked seen
        check_hop_counts(len(path.links), len(path.links))
        if self._is_late(event.epoch):
            return
        self._seen_epoch(event.epoch)
        state = self._state(event.epoch)
        if event.seq in state.seqs:
            self.stats.duplicate_events += 1
            return
        state.seqs.add(event.seq)
        if event.seq > state.max_seq:
            state.max_seq = event.seq
        # a buffered count goes to its flow's first arriving path
        pending = state.pending_retransmissions.pop(path.flow_id, 0)
        state.refs.append(path)
        state.tally.add_flow(
            path.flow_id, path.links, path.retransmissions + pending, event.seq
        )
        if event.seq > state.last_seq:
            state.last_seq = event.seq
        else:  # a path below the running highest path seq: out of order
            self.stats.out_of_order_events += 1
        state.mutations += 1
        self.stats.paths_ingested += 1

    def _ingest_retransmission(self, event: RetransmissionEvidence) -> None:
        if self._is_late(event.epoch):
            return
        self._seen_epoch(event.epoch)
        state = self._state(event.epoch)
        if event.seq is not None:
            if event.seq in state.seqs:
                self.stats.duplicate_events += 1
                return
            state.seqs.add(event.seq)
            state.retransmission_seqs.add(event.seq)
            if event.seq > state.max_seq:
                state.max_seq = event.seq
        state.bump_flow(event.flow_id, event.retransmissions)
        self.stats.retransmission_updates += 1

    # ------------------------------------------------------------------
    # batched fast path (bit-identical to the per-event path)
    # ------------------------------------------------------------------
    def _ingest_evidence_fallback(self, run: List[Evidence]) -> None:
        """Event-at-a-time replay of a run (handles every edge case).

        Mirrors :meth:`ingest`'s dispatch exactly — subclasses are accepted
        via ``isinstance``, unknown kinds raise — so the fast path may hand
        *anything* here and get per-event semantics.
        """
        for event in run:
            if isinstance(event, PathEvidence):
                self._ingest_path(event)
            elif isinstance(event, RetransmissionEvidence):
                self._ingest_retransmission(event)
            else:
                raise TypeError(f"not an evidence event: {event!r}")

    def _ingest_evidence_run(
        self,
        epoch: int,
        run: List[Evidence],
        seqs: Optional[np.ndarray] = None,
    ) -> None:
        """Bulk-ingest one epoch's run of path + retransmission evidence.

        The vectorized path applies all path evidence with one bulk
        ``add_flows`` tally update, then folds the run's retransmission
        updates aggregated per flow (``np.unique``/``np.bincount``) — one
        numpy-summed bump per *changed flow* instead of one Python dispatch
        per event.  Because count updates never move votes, applying them
        after the run's paths is state-identical to the interleaved per-event
        order (integer sums commute; the tally rows end in exactly the same
        state).  A run stays on this path whether it extends
        the epoch, lands below the watermark (late but disjoint from
        everything seen: appended in arrival order, which no report minds)
        or redelivers only seen sequence
        numbers (dropped with one set test); runs shorter than 8 events and
        genuinely mixed ones — partial duplicates, in-run reordering, a flow
        re-traced after its update, exotic kinds — replay per event, and the
        latter are counted in ``stats.fallback_events``.
        """
        if self._last_finalized is not None and epoch <= self._last_finalized:
            self.stats.late_events += len(run)
            return
        if len(run) < 8:
            self._ingest_evidence_fallback(run)
            return
        self._seen_epoch(epoch)
        state = self._state(epoch)
        # Validation mutates nothing, so a run that fails a proof below is
        # replayed per event from untouched state, never half-applied.
        if seqs is None:
            seqs = seqs_of(run)
        columns = run_columns(run, seqs)
        # ``None``: an exotic event kind (e.g. a PathEvidence subclass)
        # slipped past the attribute gate — the per-event path knows how to
        # handle, or loudly reject, it.  Never swallow events.
        if columns is not None:
            paths, path_seqs, upd_flows, upd_seqs, upd_counts = columns
            if not bulk_admissible(
                seqs,
                state.max_seq,
                np.fromiter(
                    map(len, map(operator.attrgetter("links"), paths)),
                    dtype=np.int64,
                    count=len(paths),
                ),
                map(operator.attrgetter("flow_id"), paths),
                path_seqs,
                upd_flows,
                upd_seqs,
                state.seqs,
            ):
                if state.seqs.issuperset(seqs.tolist()):  # a redelivered run
                    self.stats.duplicate_events += len(run)
                    return
                columns = None
        if columns is None:
            self.stats.fallback_events += len(run)
            self._ingest_evidence_fallback(run)
            return

        if paths:
            first_row = state.tally.num_flows
            state.refs.extend(paths)
            state.tally.add_flows(paths, path_seqs)
            pending = state.pending_retransmissions
            if pending:  # buffered counts go to their flow's first arrival
                rows, extras = [], []
                for row, path in enumerate(paths, first_row):
                    if path.flow_id in pending:
                        rows.append(row)
                        extras.append(pending.pop(path.flow_id))
                state.tally.bump_rows(rows, extras)
            if path_seqs[0] < state.last_seq:
                # same count as per event: the run's seqs increase, so a path
                # is below the running highest path seq iff it is below the
                # one the run found.
                self.stats.out_of_order_events += bisect_left(
                    path_seqs, state.last_seq
                )
            state.last_seq = max(state.last_seq, path_seqs[-1])
            state.mutations += 1
            self.stats.paths_ingested += len(paths)

        if upd_flows:
            # flows whose paths have not arrived are buffered
            rows, extras = bind_updates(
                state.tally,
                *aggregate_updates(upd_flows, upd_counts),
                state.pending_retransmissions,
            )
            state.tally.bump_rows(rows, extras)
            if rows:
                state.mutations += 1
            state.retransmission_seqs.update(upd_seqs)
            self.stats.retransmission_updates += len(upd_flows)

        state.seqs.update(seqs.tolist())
        state.max_seq = max(state.max_seq, int(seqs[-1]))
        if len(run) >= _EAGER_FOLD_EVENTS and self.engine == "arrays":
            state.tally.votes_array()

    def _ingest_tick(self, event: EpochTick) -> None:
        if self._is_late(event.epoch):
            return
        self._seen_epoch(event.epoch)
        self.stats.ticks += 1
        # Finalize every epoch up to the tick — including evidence-less gap
        # epochs, which still get their (empty) reports exactly like the
        # batch loop emits one report per epoch.  The starting point is the
        # service's earliest known progress marker; epochs before the first
        # evidence/tick ever seen are outside the stream and stay unknown.
        open_epochs = [e for e in self._epochs if e <= event.epoch]
        if self._last_finalized is not None:
            start = self._last_finalized + 1
        elif open_epochs:
            start = min(open_epochs)
        else:
            start = event.epoch
        for epoch in range(start, event.epoch + 1):
            self._finalize(epoch)

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def _materialize(self, epoch: int, state: Optional[_EpochState], final: bool) -> EpochReport:
        if state is None:
            tally = self._new_tally()
        else:
            # Mid-epoch reports snapshot the tally so later ingests cannot
            # mutate an already-returned report; the final report owns the
            # live tally (no copy) since the epoch's state is dropped.  A
            # snapshot shares the tally's append-only buffers instead of
            # deep-copying them, which is what keeps repeated mid-epoch
            # queries O(changed rows), not O(epoch).
            tally = state.tally if final else state.tally.snapshot()
        self.stats.reports_materialized += 1
        return self._agent.analyze_tally(epoch, tally)

    def report(self, epoch: Optional[int] = None) -> EpochReport:
        """Materialize the :class:`EpochReport` of ``epoch`` right now.

        ``epoch=None`` reports on the most advanced epoch seen so far.  For a
        finalized epoch the cached final report is returned; for an open (or
        empty) epoch a fresh report is materialized from the evidence ingested
        *so far* — the mid-epoch "which link is bad right now" query.  Open
        epochs keep their last mid-epoch report as a materialized view: a
        query that finds no rows touched since the previous query (tracked by
        a per-epoch change watermark) returns the cached report in O(1), so
        polling an idle epoch costs microseconds, not an analysis run.
        Raises :class:`ReportUnavailableError` (a ``KeyError``) for finalized
        epochs evicted from the retention window.
        """
        if epoch is None:
            epoch = self._max_epoch_seen if self._max_epoch_seen is not None else 0
            if (
                epoch not in self._final_reports
                and self._last_finalized is not None
                and epoch <= self._last_finalized
            ):
                # e.g. freshly restored from a checkpoint taken at an epoch
                # boundary: the closed epoch's report was not serialized, so
                # "right now" is the next (still-empty) open epoch.
                epoch = self._last_finalized + 1
        if epoch in self._final_reports:
            return self._final_reports[epoch]
        if self._last_finalized is not None and epoch <= self._last_finalized:
            raise ReportUnavailableError(
                epoch, self._last_finalized, self._retain_reports
            )
        state = self._epochs.get(epoch)
        if (
            state is not None
            and state.cached_report is not None
            and state.cached_at == state.mutations
        ):
            # the materialized view: no rows were touched since the previous
            # query, so the previous query's report *is* the current report.
            return state.cached_report
        report = self._materialize(epoch, state, final=False)
        if state is not None:
            state.cached_report = report
            state.cached_at = state.mutations
        return report

    def _finalize(self, epoch: int) -> EpochReport:
        state = self._epochs.pop(epoch, None)
        report = self._materialize(epoch, state, final=True)
        self._final_reports[epoch] = report
        while len(self._final_reports) > self._retain_reports:
            oldest = next(iter(self._final_reports))
            del self._final_reports[oldest]
        if self._last_finalized is None or epoch > self._last_finalized:
            self._last_finalized = epoch
        self.stats.epochs_finalized += 1
        for sink in self._sinks:
            sink.on_report(report)
        return report

    def advance_epoch(self, epoch: int) -> EpochReport:
        """Tick ``epoch`` closed and return its finalized report.

        Equivalent to ``ingest(EpochTick(epoch))`` followed by
        ``report(epoch)`` — the convenience used by the batch adapters.
        """
        self.ingest(EpochTick(epoch))
        return self.report(epoch)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, base: Optional[Checkpoint] = None) -> Checkpoint:
        """Snapshot the resumable analysis state (see :class:`Checkpoint`).

        With ``base`` — a *full* service checkpoint taken earlier from this
        same stream — the result is a **delta** checkpoint carrying only the
        evidence that arrived since the base (new records, records whose
        retransmission counts changed, newly consumed update seqs) plus the
        current counters.  Apply it with ``base.apply_delta(delta)`` before
        restoring.  Without ``base`` the checkpoint is full and directly
        restorable.

        Records are kept in arrival order.  Flow ids, counts, seqs and hops
        are copied out of the tally's buffers and each record's identity is
        columnized at most once in the service's life (by the first
        checkpoint or ``evidence_for_epoch`` that meets it), so a delta
        capture costs O(new records).  The
        returned columns are copies or arrays nobody writes again: later
        ingests never show through a checkpoint already taken.
        """
        payload: Dict[str, Any] = {
            "version": CHECKPOINT_VERSION,
            "kind": "service",
            "engine": self.engine,
            "vote_policy": self._vote_policy,
            "attribute_noise_flows": self._attribute_noise_flows,
            "blame": blame_to_dict(self._blame_config),
            "retain_reports": self._retain_reports,
            "max_epoch_seen": self._max_epoch_seen,
            "last_finalized": self._last_finalized,
            "stats": self.stats.as_dict(),
        }
        base_entries: Dict[int, Dict[str, Any]] = {}
        if base is not None:
            base.validate()
            if base.is_delta:
                raise ValueError(
                    "the base of a delta checkpoint must be a full checkpoint"
                )
            if base.kind != "service":
                raise ValueError(
                    f"base checkpoint kind {base.kind!r} does not match 'service'"
                )
            base = base.columnar()
            payload["delta"] = True
            payload["base"] = payload_fingerprint(base.payload, base.columns)
            base_entries = {
                entry["epoch"]: entry for entry in base.payload["epochs"]
            }
        builder = ColumnsBuilder()
        epochs: List[Dict[str, Any]] = []
        for epoch in sorted(self._epochs):
            state = self._epochs[epoch]
            cols = self._epoch_columns(state)
            pending = {
                str(flow): count
                for flow, count in sorted(state.pending_retransmissions.items())
            }
            base_entry = base_entries.get(epoch)
            if base_entry is not None:
                known = epoch_columns(base_entry, base.columns, DIFF_COLUMNS)
                rows = delta_rows(cols["seq"], cols["retr"], known)
                retrans_seqs = np.setdiff1d(cols["rs"], known["rs"])
                if (
                    not len(rows)
                    and not len(retrans_seqs)
                    and pending == base_entry["pending_retransmissions"]
                ):
                    continue  # untouched since the base — the merge keeps base's copy
                cols = take_rows(cols, rows)
                cols["rs"] = retrans_seqs
            # np.array copies: the tally's buffers stay the service's own
            cols = {
                name: np.array(col, dtype=COLUMN_DTYPES[name])
                for name, col in cols.items()
            }
            epochs.append(builder.add_epoch(f"e{len(epochs)}", epoch, cols, pending))
        payload["epochs"] = epochs
        return Checkpoint(
            payload,
            CheckpointColumns(
                builder.arrays, list(self._names.items), list(self._link_index.items)
            ),
        )

    def _epoch_columns(self, state: _EpochState) -> EpochColumns:
        """One open epoch as checkpoint columns over the service's name table
        and link index, rows in arrival order.

        ``seq``/``flow``/``retr``/``hop`` may be views of the tally's live
        buffers and the identity columns are the state's own: copy before
        keeping.
        """
        flows, counts, lengths, hops, seqs = state.tally.record_columns()
        if self.engine != "arrays":  # the dict oracle holds link objects
            hops = self._link_index.fast_ids(hops)
        cols = dict(state.identity_columns())
        cols["seq"] = np.asarray(seqs, dtype=np.int64)
        cols["flow"] = np.asarray(flows, dtype=np.int64)
        cols["retr"] = np.asarray(counts, dtype=np.int64)
        cols["len"] = np.asarray(lengths, dtype=np.int64)
        cols["hop"] = np.asarray(hops, dtype=np.int64)
        # consumed update seqs: their effect is already inside the rows'
        # counts, but redeliveries after a restore must still be recognized
        # as duplicates.
        cols["rs"] = np.array(sorted(state.retransmission_seqs), dtype=np.int64)
        return cols

    def _seed_epoch(
        self, entry: Dict[str, Any], columns: CheckpointColumns, link_ids: np.ndarray
    ) -> None:
        """Seed one open epoch's state straight from its checkpoint columns.

        The records (unique sequence numbers, in the order they arrived, or
        sorted in older files) are folded in one bulk pass — state-identical
        to replaying every record through :meth:`ingest`, at a fraction of
        the cost — and the identity columns are adopted as they are:
        ``columns``' name table is this service's, and ``link_ids[i]`` is the
        index id of ``columns.links[i]``.  No path object is built.
        """
        epoch = int(entry["epoch"])
        cols = epoch_columns(entry, columns)
        seqs = cols["seq"]
        self._seen_epoch(epoch)
        state = self._state(epoch)
        state.cargo = {name: cols[name] for name in IDENTITY_COLUMNS}
        state.seqs = set(seqs.tolist())
        if len(seqs):
            hops = link_ids[cols["hop"]]
            if self.engine != "arrays":  # the dict oracle folds link objects
                hops = list(map(self._link_index.link_of, hops.tolist()))
            state.tally.add_columns(
                hops, cols["len"], cols["flow"], cols["retr"], seqs
            )
            state.last_seq = state.max_seq = int(seqs.max())
        self.stats.paths_ingested += len(seqs)
        for flow, count in entry["pending_retransmissions"].items():
            # exactly a seq-less buffered update through live ingest
            state.bump_flow(int(flow), int(count))
            self.stats.retransmission_updates += 1
        retrans_seqs = cols["rs"].tolist()
        if retrans_seqs:
            state.retransmission_seqs.update(retrans_seqs)
            state.seqs.update(retrans_seqs)
            state.max_seq = max(state.max_seq, max(retrans_seqs))

    @classmethod
    def restore(
        cls,
        checkpoint: Checkpoint,
        sinks: Sequence[ReportSink] = (),
        link_index: Optional[LinkIndex] = None,
    ) -> "Zero07Service":
        """Rebuild a service from a :class:`Checkpoint`.

        The open epochs' tallies are re-folded from the checkpoint's columns,
        so every subsequent :meth:`report` is bit-identical
        to what the checkpointed service would have produced; no record is
        decoded into a path object.  Works for both serializations (v1 JSON
        and v2 binary); delta checkpoints must be applied to their base
        first.  Sinks are not serialized — pass the ones the resumed service
        should notify.
        """
        checkpoint.validate()
        if checkpoint.is_delta:
            raise ValueError(
                "cannot restore a delta checkpoint directly; merge it onto "
                "its full base first with base.apply_delta(delta)"
            )
        kind = checkpoint.payload.get("kind")
        if kind != "service":
            raise ValueError(f"not a service checkpoint: kind={kind!r}")
        checkpoint = checkpoint.columnar()
        payload, columns = checkpoint.payload, checkpoint.columns
        service = cls(
            blame_config=blame_from_dict(payload["blame"]),
            vote_policy=payload["vote_policy"],
            engine=payload["engine"],
            attribute_noise_flows=bool(payload["attribute_noise_flows"]),
            sinks=sinks,
            retain_reports=int(payload["retain_reports"]),
            link_index=link_index,
        )
        service._names = ItemIndex(columns.names)
        link_ids = service._link_index.fast_ids(columns.links)
        for entry in payload["epochs"]:
            service._seed_epoch(entry, columns, link_ids)
        service._max_epoch_seen = (
            int(payload["max_epoch_seen"])
            if payload["max_epoch_seen"] is not None
            else None
        )
        service._last_finalized = (
            int(payload["last_finalized"])
            if payload["last_finalized"] is not None
            else None
        )
        stats = payload.get("stats", {})
        for name, value in stats.items():
            if hasattr(service.stats, name):
                setattr(service.stats, name, int(value))
        return service
