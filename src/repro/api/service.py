"""The event-driven 007 analysis service.

:class:`Zero07Service` is the always-on core the rest of the system is built
around: evidence events (:mod:`repro.api.events`) are *ingested* one at a
time or in batches, an **incremental vote tally** is maintained per open epoch
with O(changed-flows) work (each admitted run appends its paths with one
``add_columns`` and bumps each updated flow once — on both the dict and the
array engine), and an
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
    Checkpoint,
    CheckpointColumns,
    ColumnsBuilder,
    EpochColumns,
    delta_rows,
    epoch_columns,
    payload_fingerprint,
    sorted_difference,
)
from repro.api.events import (
    EpochTick,
    Evidence,
    PathEvidence,
    RetransmissionEvidence,
)
from repro.api.wire import RunColumns, SeqRuns, bind_updates, run_columns, seqs_of
from repro.core.analysis import AnalysisAgent, EngineKind, EpochReport
from repro.core.arrays import ArrayVoteTally, LinkIndex
from repro.core.blame import BlameConfig
from repro.core.votes import VotePolicy, VoteTally, check_hop_counts
from repro.util.jsonable import from_json, to_json


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
    reports_materialized: int = 0
    epochs_finalized: int = 0

    def reset(self) -> None:
        """Reset every counter to its field default."""
        for spec in dataclasses.fields(self):
            setattr(self, spec.name, spec.default)

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (checkpoint payload)."""
        return dataclasses.asdict(self)


#: the checkpoint columns that may view the tally's live buffers.
_TALLY_COLUMNS = frozenset(("seq", "flow", "retr", "len"))

#: a bulk run at least this long folds the tally as it lands, so the tick finds
#: nothing to catch up on.  A fold of the hop rows costs ~60 us plus ~0.04 us a
#: row (``steady_ingest``-shaped rows, 2-CPU x86 host, numpy 2.4): four 400-row
#: folds take ~290 us where the report after them folds the 1 600 rows in ~135
#: (``operator_trickle``'s 512-event deliveries read 2-5 % slower folded singly).
#: The fixed part grows with the fabric: on the 2 816-link one a query-sized
#: fold of ~1 000 rows takes ~0.29 ms of ``operator_trickle``'s ~0.8 ms cold
#: report.
_EAGER_FOLD_EVENTS = 2048

#: per-event ``ingest`` joins a pending run that is admitted at this length (or
#: sooner, before anything reads or extends its epoch).  An admission costs
#: ~110-170 us plus ~0.95-1.3 us an event (``operator_trickle``'s stream, same
#: host, flushed by reading ``stats``): 512 keeps the fixed cost near 0.2-0.35
#: us an event and caps what a cold report absorbs at ~0.6-0.85 ms.
_PENDING_RUN_EVENTS = 512


def _capture(event: Evidence) -> tuple:
    """What the analysis reads of one evidence event, read now: ``(seq, flow
    id, count, links)``, links ``None`` for a count update.

    Raises like every ingest path: ``TypeError`` on a foreign kind,
    ``ValueError`` / ``PathTooLongError`` on a path that cannot vote or has
    no seq ``>= 0`` or a retransmission count below 0.
    """
    if isinstance(event, PathEvidence):
        path = event.path
        links = tuple(path.links)
        check_hop_counts(len(links), len(links))
        if event.seq is None or event.seq < 0:
            raise ValueError(f"a path's seq must be an integer >= 0: {event.seq!r}")
        row = event.seq, path.flow_id, path.retransmissions, links
    elif isinstance(event, RetransmissionEvidence):
        row = event.seq, event.flow_id, event.retransmissions, None
    else:
        raise TypeError(f"not an evidence event: {event!r}")
    if row[2] < 0:
        raise ValueError(f"a retransmission count must be >= 0: {row[2]!r}")
    return row


def _pending_columns(run: List[tuple]) -> Tuple[RunColumns, List[tuple]]:
    """The edge of captured rows (:func:`_capture`): a pending run, or a
    delivered one of evidence subclasses.  Returns them as
    :class:`RunColumns` and the paths' links, read at capture."""
    seqs = np.fromiter(
        (-1 if row[0] is None else row[0] for row in run),  # see seqs_of
        dtype=np.int64,
        count=len(run),
    )
    updates = np.fromiter((row[3] is None for row in run), dtype=bool, count=len(run))
    paths = [row for row in run if row[3] is not None]
    counted = [row for row in run if row[3] is None]
    _, flows, counts, links = zip(*paths) if paths else ((),) * 4
    _, upd_flows, upd_counts, _ = zip(*counted) if counted else ((),) * 4
    return RunColumns(
        seqs,
        updates if counted else None,
        seqs[~updates],
        np.array(flows, dtype=np.int64),
        np.array(counts, dtype=np.int64),
        np.fromiter(map(len, links), dtype=np.int64, count=len(links)),
        seqs[updates],
        np.array(upd_flows, dtype=np.int64),
        np.array(upd_counts, dtype=np.int64),
    ), list(links)


class _EpochState:
    """The live incremental tally of one open epoch and what it does not hold.

    The tally's rows are the record of arrival *and* the only holder of what
    the analysis reads (flow id, hop ids, retransmission count, sequence
    number): every admitted path is appended to it, in sequence order or
    not — a delivered run's at once, a per-event ``ingest``'s when the
    service's pending run it joined is admitted.  Nothing else of a path is
    kept: no five-tuple, host, ``complete`` flag or path epoch, and no
    reference to a delivered path object.
    """

    __slots__ = (
        "seqs",
        "retransmission_seqs",
        "tally",
        "last_seq",
        "pending_retransmissions",
        "mutations",
        "cached_report",
        "cached_at",
    )

    def __init__(self, tally) -> None:
        #: seen sequence numbers (duplicate-delivery suppression).
        self.seqs = SeqRuns()
        #: the seqs consumed by retransmission updates, one array per
        #: admission (their effect lives in the rows' counts, so checkpoints
        #: persist the ids).
        self.retransmission_seqs: List[np.ndarray] = []
        #: the live tally; always holds every record, row for row.
        self.tally = tally
        #: highest *path* sequence number seen so far.
        self.last_seq = -1
        #: retransmission updates that arrived before their flow's path.
        self.pending_retransmissions: Dict[int, int] = {}
        #: change watermark: bumped by every ingest that can alter a report
        #: (new paths, applied count updates) and by every event joining the
        #: pending run (taken back when the run is admitted, which counts what
        #: it changed).  The epoch's materialized view
        #: — the last mid-epoch report — is cached together with the
        #: watermark it was computed at, so a query that lands with no rows
        #: touched since the previous query returns the cached report
        #: outright instead of re-running the analysis.  ``cached_at`` equals
        #: it only once a report was cached (the watermark never goes below 0).
        self.mutations = 0
        self.cached_report: Optional[EpochReport] = None
        self.cached_at = -1


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
        self._epochs: Dict[int, _EpochState] = {}
        #: finalized reports, insertion-ordered, bounded by retain_reports.
        self._final_reports: Dict[int, EpochReport] = {}
        self._last_finalized: Optional[int] = None
        self._max_epoch_seen: Optional[int] = None
        self._stats = ServiceStats()
        #: per-event ``ingest``'s captured rows (:func:`_capture`), all of
        #: epoch ``_pending_epoch``, whose state ``_pending_state`` is.
        self._pending: List[tuple] = []
        self._pending_epoch: Optional[int] = None
        self._pending_state: Optional[_EpochState] = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> ServiceStats:
        """Counters of what the service ingested and produced.  Reading them
        admits the pending run first, so every ingested event is counted."""
        if self._pending:
            self._flush()
        return self._stats

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

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, event: Evidence) -> None:
        """Ingest one evidence event (path, retransmission update, or tick).

        A path or count update is checked at once — a foreign kind raises
        ``TypeError``, a path without links or without a seq ``>= 0``
        ``ValueError``, one with too many
        :class:`~repro.core.votes.PathTooLongError`, and an event of a
        finalized epoch counts in ``stats.late_events`` — and then joins its
        epoch's *pending run*: what the analysis reads of it (seq, flow id,
        count, links) is captured here, so a source that changes its objects
        afterwards is not seen.  The run is admitted like a delivered batch
        (:meth:`_admit`) at 512 events, and before anything reads or extends
        its epoch: a cold report, a tick, a checkpoint, a batch, a ``stats``
        read, an event of another epoch.  Results are bit-identical to
        admitting every event alone.
        """
        if isinstance(event, EpochTick):
            self._ingest_tick(event)
            return
        row = _capture(event)
        epoch = event.epoch
        if self._is_late(epoch):
            return
        if epoch != self._pending_epoch:
            self._flush()
            self._seen_epoch(epoch)
            self._pending_epoch, self._pending_state = epoch, self._state(epoch)
        self._pending_state.mutations += 1
        self._pending.append(row)
        if len(self._pending) >= _PENDING_RUN_EVENTS:
            self._flush()

    def ingest_batch(self, events: Iterable[Evidence], owned: bool = False) -> None:
        """Ingest many evidence events in order.

        The batch is cut into maximal single-epoch runs of evidence, and
        ticks; each run is admitted as a whole (:meth:`_admit`): its paths
        update the tally with one bulk ``add_columns`` call, its count
        updates are summed per flow with numpy, so the tally is bumped once
        per *changed flow*, not once per event.  Runs of any length, order,
        duplication or evidence kind are admitted that way, bit-identical
        to ingesting their events one at a time.  Per-event :meth:`ingest`
        joins a pending run that the same admission takes.

        ``owned`` is accepted and both values do the same thing: what the
        analysis reads of a path (flow id, links, count) is captured at
        ingest — that *is* the defensive copy — and the
        service never writes to a path object, so a source may keep bumping
        its ``DiscoveredPath.retransmissions`` in place (as the monitoring
        agent's cache does) whether it declared a hand-over or not.
        """
        events = events if isinstance(events, list) else list(events)
        # Common shape: one epoch's evidence, optionally ending with its
        # tick.  Both checks run through C iterators — EpochTick has no
        # ``seq``, so a single attrgetter pass proves "evidence only".
        tail = 1 if events and type(events[-1]) is EpochTick else 0
        body = events[:-1] if tail else events
        if body:
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
        self._ingest_evidence_run(epoch, run, seqs)

    def ingest_columns(
        self, epoch: int, cols: RunColumns, hop_ids: np.ndarray
    ) -> int:
        """Admit one decoded single-epoch run, in any order against the
        epoch's other runs: ``cols`` as :class:`~repro.api.wire.RunColumns`
        (:meth:`WireRun.columns <repro.api.wire.WireRun.columns>`), its paths'
        hops back to back as ids of :attr:`link_index` (a
        :class:`~repro.api.wire.LinkRemap` translates a stream's).

        The run is admitted like every other (:meth:`_admit`: duplicates
        dropped, counted in ``stats.duplicate_events``, the rest folded in
        bulk).  Results are bit-identical to ``ingest_run`` of the materialized events.
        Returns how many events were dropped as seen before.
        """
        count = len(cols.seqs)
        if not count or self._is_late(epoch, count):
            return 0
        self._flush()
        return self._admit(epoch, cols, hop_ids)

    def consume(self, source: EvidenceSource, owned: bool = False) -> None:
        """Drain an :class:`EvidenceSource` into the service (``owned``: see
        :meth:`ingest_batch`)."""
        self.ingest_batch(source.events(), owned=owned)

    def _seen_epoch(self, epoch: int) -> None:
        if self._max_epoch_seen is None or epoch > self._max_epoch_seen:
            self._max_epoch_seen = epoch

    def _is_late(self, epoch: int, events: int = 1) -> bool:
        if self._last_finalized is not None and epoch <= self._last_finalized:
            self._stats.late_events += events
            return True
        return False

    def _state(self, epoch: int) -> _EpochState:
        state = self._epochs.get(epoch)
        if state is None:
            state = _EpochState(self._new_tally())
            self._epochs[epoch] = state
        return state

    def _new_tally(self):
        if self.engine == "arrays":
            return ArrayVoteTally(policy=self._vote_policy, index=self._link_index)
        return VoteTally(policy=self._vote_policy)

    # ------------------------------------------------------------------
    # one admission for every delivery (bit-identical to one event at a time)
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        """Admit the pending run (see :meth:`ingest`); no-op when empty."""
        run = self._pending
        if not run:
            return
        self._pending = []
        # the admission counts what the run changed
        self._pending_state.mutations -= len(run)
        self._admit(self._pending_epoch, *_pending_columns(run))

    def _ingest_evidence_run(
        self,
        epoch: int,
        run: List[Evidence],
        seqs: Optional[np.ndarray] = None,
    ) -> None:
        """The edge of a delivered run: one epoch's path + retransmission
        evidence, as columns for :meth:`_admit`.  A run holding evidence
        subclasses is captured event by event, as per-event ingest does (a
        foreign kind raises ``TypeError`` there, before any state changes).
        """
        if not run or self._is_late(epoch, len(run)):
            return
        self._flush()
        edge = run_columns(run, seqs_of(run) if seqs is None else seqs)
        if edge is None:
            edge = _pending_columns(list(map(_capture, run)))
        self._admit(epoch, *edge)

    def _admit(self, epoch: int, cols: RunColumns, hops) -> int:
        """Admit one run of ``epoch``; returns how many of its events were
        dropped as seen before.  The one place evidence reaches a tally.

        ``hops`` are the paths' hops back to back as link-index ids, or each
        path's links, interned only once the run is checked: a path that
        cannot vote or has no seq ``>= 0``, or a retransmission count below 0
        (which no checkpoint could restore), raises before any state changes.

        Then the events the epoch saw before and the repeats inside the run
        are dropped with one mask (:meth:`~repro.api.wire.SeqRuns.duplicates`;
        a seq-less update is never a duplicate), and the rest is folded in
        bulk (:meth:`_fold`).  So a run of any length, order, duplication
        or evidence kind is admitted like a series of one-event runs.
        """
        path_seqs = cols.path_seqs
        if len(path_seqs):
            check_hop_counts(int(cols.lengths.min()), int(cols.lengths.max()))
            if int(path_seqs.min()) < 0:
                raise ValueError("a path's seq must be an integer >= 0")
        for counts in (cols.counts, cols.upd_counts):
            if len(counts) and int(counts.min()) < 0:
                raise ValueError("a retransmission count must be >= 0")
        if not isinstance(hops, np.ndarray):  # each path's links
            hops = self._link_index.hop_ids(hops, int(cols.lengths.sum()))
        self._seen_epoch(epoch)
        state = self._state(epoch)
        drop = state.seqs.duplicates(cols.seqs)
        dropped = int(np.count_nonzero(drop))
        if dropped:
            self._stats.duplicate_events += dropped
            if dropped == len(drop):  # a redelivered run
                return dropped
            cols, hop_keep = cols.take(~drop)
            hops = hops[hop_keep]
        self._fold(state, cols, hops)
        return dropped

    def _fold(self, state: _EpochState, cols: RunColumns, hops: np.ndarray) -> None:
        """Fold one duplicate-free run (see :meth:`_admit`) in bulk.

        Each count update is bound first to the row it binds to at its
        position (:func:`~repro.api.wire.bind_updates`); one without a row
        joins the epoch's buffered counts.  Then one ``add_columns`` tally
        update appends the paths in arrival order (late or not: no report
        minds the order of the rows), the buffered counts go to their
        flow's first arrival, and the bound updates bump their rows.  Count
        updates never move votes and integer sums commute, so this leaves
        the tally exactly as the interleaved per-event order does.
        """
        stats, tally, path_seqs = self._stats, state.tally, cols.path_seqs
        pending = state.pending_retransmissions
        if len(cols.upd_flows):
            rows = bind_updates(cols, tally)
            unbound = rows < 0
            for flow, extra in zip(
                cols.upd_flows[unbound].tolist(), cols.upd_counts[unbound].tolist()
            ):
                pending[flow] = pending.get(flow, 0) + extra
        if len(path_seqs):
            first_row = tally.num_flows
            if self.engine != "arrays":  # the dict oracle folds link objects
                hops = list(map(self._link_index.links.__getitem__, hops.tolist()))
            tally.add_columns(hops, cols.lengths, cols.flows, cols.counts, path_seqs)
            if pending:  # buffered counts go to their flow's first arrival
                waiting = np.fromiter(pending, dtype=np.int64, count=len(pending))
                hit = np.flatnonzero(np.isin(cols.flows, waiting))
                if len(hit):
                    flows, first = np.unique(cols.flows[hit], return_index=True)
                    tally.bump_rows(
                        hit[first] + first_row, list(map(pending.pop, flows.tolist()))
                    )
            # same count as per event: a path below the highest path seq
            # before it is out of order
            before = np.maximum.accumulate(
                np.concatenate(([state.last_seq], path_seqs[:-1]))
            )
            stats.out_of_order_events += int(np.count_nonzero(path_seqs < before))
            state.last_seq = max(state.last_seq, int(path_seqs.max()))
            state.mutations += 1
            stats.paths_ingested += len(path_seqs)

        seqs = cols.seqs
        if len(cols.upd_flows):
            tally.bump_rows(rows[~unbound], cols.upd_counts[~unbound])
            if not bool(unbound.all()):
                state.mutations += 1
            upd_seqs = cols.upd_seqs[cols.upd_seqs >= 0]  # seq-less: never seen
            if len(upd_seqs):
                state.retransmission_seqs.append(upd_seqs)
            stats.retransmission_updates += len(cols.upd_flows)
            seqs = seqs[seqs >= 0]
        state.seqs.add_run(seqs)
        if len(cols.seqs) >= _EAGER_FOLD_EVENTS and self.engine == "arrays":
            tally.votes_array()

    def _ingest_tick(self, event: EpochTick) -> None:
        if self._is_late(event.epoch):
            return
        self._seen_epoch(event.epoch)
        self._flush()
        self._stats.ticks += 1
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
            tally, prior = self._new_tally(), None
        else:
            # Mid-epoch reports snapshot the tally so later ingests cannot
            # mutate an already-returned report; the final report owns the
            # live tally (no copy) since the epoch's state is dropped.  A
            # snapshot shares the tally's append-only buffers instead of
            # deep-copying them, which is what keeps repeated mid-epoch
            # queries O(changed rows), not O(epoch).  Algorithm 1 resumes
            # from the previous report, whose rows are a prefix of these —
            # or, when that report read them all, its verdict stands.
            tally = state.tally if final else state.tally.snapshot()
            prior = state.cached_report
        self._stats.reports_materialized += 1
        return self._agent.analyze_tally(epoch, tally, prior)

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
        if state is not None and state.cached_at == state.mutations:
            # the materialized view: no rows were touched since the previous
            # query, so the previous query's report *is* the current report.
            return state.cached_report
        if self._pending:
            self._flush()
            if state is not None and state.cached_at == state.mutations:
                return state.cached_report  # the run changed nothing
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
        self._stats.epochs_finalized += 1
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

        Records are kept in arrival order: flow ids, counts, seqs and hops,
        copied out of the tally's buffers, so a delta capture costs O(new
        records).  The returned columns are copies or arrays nobody writes
        again: later ingests never show through a checkpoint already taken.
        """
        self._flush()
        payload: Dict[str, Any] = {
            "version": CHECKPOINT_VERSION,
            "kind": "service",
            "engine": self.engine,
            "vote_policy": self._vote_policy,
            "attribute_noise_flows": self._attribute_noise_flows,
            "blame": to_json(self._blame_config),
            "retain_reports": self._retain_reports,
            "max_epoch_seen": self._max_epoch_seen,
            "last_finalized": self._last_finalized,
            "stats": self._stats.as_dict(),
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
            payload["delta"] = True
            payload["base"] = payload_fingerprint(base.payload, base.columns)
            base_entries = {
                entry["epoch"]: entry for entry in base.payload["epochs"]
            }
        builder = ColumnsBuilder()
        epochs: List[Dict[str, Any]] = []
        for epoch in sorted(self._epochs):
            state = self._epochs[epoch]
            pending = {
                str(flow): count
                for flow, count in sorted(state.pending_retransmissions.items())
            }
            base_entry = base_entries.get(epoch)
            if base_entry is None:
                cols = self._epoch_columns(state)
            else:
                known = epoch_columns(base_entry, base.columns, DIFF_COLUMNS)
                # the rows to carry follow from the seqs and counts alone:
                # only their hops are gathered
                rows = delta_rows(
                    state.tally.seqs_array(), state.tally.retransmissions_array(), known
                )
                cols = self._epoch_columns(state, rows)
                cols["rs"] = sorted_difference(cols["rs"], known["rs"])
                if (
                    not len(rows)
                    and not len(cols["rs"])
                    and pending == base_entry["pending_retransmissions"]
                ):
                    continue  # untouched since the base — the merge keeps base's copy
            # the tally's buffers stay the service's own: copy what may view
            # them; the consumed seqs are fresh, so the checkpoint shares them
            cols = {
                name: (np.array if name in _TALLY_COLUMNS else np.asarray)(
                    col, dtype=COLUMN_DTYPES[name]
                )
                for name, col in cols.items()
            }
            epochs.append(builder.add_epoch(f"e{len(epochs)}", epoch, cols, pending))
        payload["epochs"] = epochs
        return Checkpoint(
            payload,
            CheckpointColumns(builder.arrays, list(self._link_index.items)),
        )

    def _epoch_columns(
        self, state: _EpochState, rows: Optional[np.ndarray] = None
    ) -> EpochColumns:
        """One open epoch's records, all in arrival order or ``rows`` in that
        order, as checkpoint columns over the service's link index.

        ``seq``/``flow``/``retr``/``len`` may be views of the tally's live
        buffers: copy before keeping.
        """
        flows, counts, lengths, hops, seqs = state.tally.record_columns(rows)
        if self.engine != "arrays":  # the dict oracle holds link objects
            hops = self._link_index.fast_ids(hops)
        cols = {
            "seq": np.asarray(seqs, dtype=np.int64),
            "flow": np.asarray(flows, dtype=np.int64),
            "retr": np.asarray(counts, dtype=np.int64),
            "len": np.asarray(lengths, dtype=np.int64),
            "hop": np.asarray(hops, dtype=COLUMN_DTYPES["hop"]),
        }
        # consumed update seqs: their effect is already inside the rows'
        # counts, but redeliveries after a restore must still be recognized
        # as duplicates.
        runs = state.retransmission_seqs
        cols["rs"] = np.sort(np.concatenate(runs)) if runs else np.zeros(0, np.int64)
        return cols

    def _seed_epoch(
        self, entry: Dict[str, Any], columns: CheckpointColumns, link_ids: np.ndarray
    ) -> None:
        """Seed one open epoch's state straight from its checkpoint columns.

        The records (unique sequence numbers, in the order they arrived, or
        sorted in older files) are one :meth:`ingest_columns` run —
        state-identical to replaying every record through :meth:`ingest`, at
        a fraction of the cost — whose hops are ``link_ids[hop]``:
        ``link_ids[i]`` is the index id of ``columns.links[i]``.  No path
        object is built.
        The buffered counts are the epoch's as saved, and the consumed update
        seqs join the seen ones as one more run.
        """
        epoch = entry["epoch"]
        cols = epoch_columns(entry, columns)
        seqs, none = cols["seq"], cols["seq"][:0]
        records = RunColumns(
            seqs, None, seqs, cols["flow"], cols["retr"], cols["len"], none, none, none
        )
        self.ingest_columns(epoch, records, link_ids[cols["hop"]])
        self._seen_epoch(epoch)
        state = self._state(epoch)
        state.pending_retransmissions = {
            int(flow): count for flow, count in entry["pending_retransmissions"].items()
        }
        retrans_seqs = cols["rs"]
        if len(retrans_seqs):
            state.retransmission_seqs.append(retrans_seqs)
            state.seqs.add_run(retrans_seqs)

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
        decoded into a path object.  Delta checkpoints must be applied to
        their base first.  Sinks are not serialized — pass the ones the
        resumed service should notify.
        """
        checkpoint.validate()
        if checkpoint.is_delta:
            raise ValueError(
                "cannot restore a delta checkpoint directly; merge it onto "
                "its full base first with base.apply_delta(delta)"
            )
        if checkpoint.kind != "service":
            raise ValueError(f"not a service checkpoint: kind={checkpoint.kind!r}")
        payload, columns = checkpoint.payload, checkpoint.columns
        service = cls(
            blame_config=from_json(BlameConfig, payload["blame"]),
            vote_policy=payload["vote_policy"],
            engine=payload["engine"],
            attribute_noise_flows=payload["attribute_noise_flows"],
            sinks=sinks,
            retain_reports=payload["retain_reports"],
            link_index=link_index,
        )
        link_ids = service._link_index.table_ids(columns.links)
        for entry in payload["epochs"]:
            service._seed_epoch(entry, columns, link_ids)
        # ``validate`` checked the markers: integers or None
        service._max_epoch_seen = payload["max_epoch_seen"]
        service._last_finalized = payload["last_finalized"]
        stats = payload.get("stats", {})
        unknown = set(stats) - {spec.name for spec in dataclasses.fields(ServiceStats)}
        if unknown:
            raise ValueError(f"checkpoint stats that are no counter: {sorted(unknown)}")
        for name, value in stats.items():
            setattr(service._stats, name, value)
        return service
