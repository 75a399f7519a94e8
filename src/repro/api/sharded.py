"""Host-sharded composition of :class:`~repro.api.service.Zero07Service`.

The 007 analysis is voting — and votes merge.  :class:`ShardedService`
partitions evidence across ``num_shards`` independent service instances by
the reporting host (a stable CRC32 of ``src_host``, so any process computes
the same placement), and materializes *fleet-wide* reports by merging the
shards' evidence back in global sequence order.  Because every path event
carries its per-epoch sequence number, the merged view reconstructs exactly
the stream an unsharded service would have ingested, so a sharded deployment
agrees bit-for-bit with a single service — the property that makes scale-out
safe.

Where the shards *run* is pluggable (:mod:`repro.api.executor`):

* ``backend="inline"`` (default) — every shard in this process, the original
  serial behavior and the correctness oracle.  Merged reports **replay** the
  shards' evidence in global sequence order through a fresh analysis.
* ``backend="process"`` — shards hosted by worker processes behind the
  binary evidence transport of :mod:`repro.api.wire`.  Bulk ingest then
  costs the coordinator only routing + encoding (workers tally off the
  critical path at low priority), and merged reports come from the
  coordinator's own :class:`~repro.api.wire.EvidenceColumnStore`, which
  folded the same runs in global sequence order, as they were submitted,
  into one live tally per open epoch — finalize is a snapshot of that
  tally, without a worker round-trip or a rebuild.  Deliveries the bulk path
  cannot prove clean (reordering, duplicates, pending buffers, per-event
  ingestion, restores) mark the epoch dirty and finalize falls back to
  gather-and-replay, identical to the inline path.

Per-shard reports remain available through :meth:`ShardedService.shard` on
the inline backend; under the process backend the shard services live in
workers and :meth:`shard` raises
:class:`~repro.api.executor.ShardExecutorError`.
"""

from __future__ import annotations

import operator
import zlib
from collections import OrderedDict
from itertools import compress
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    assemble_shards,
    shard_bases,
    sharded_payload_delta,
)
from repro.api.events import (
    EpochTick,
    Evidence,
    PathEvidence,
    RetransmissionEvidence,
)
from repro.api.executor import (
    InlineExecutor,
    ProcessExecutor,
    ShardExecutor,
    ShardExecutorError,
)
from repro.api.service import (
    ReportSink,
    ReportUnavailableError,
    Zero07Service,
    iter_evidence_runs,
)
from repro.api.wire import EvidenceColumnStore
from repro.core.analysis import AnalysisAgent, EngineKind, EpochReport
from repro.core.arrays import ItemIndex, LinkIndex
from repro.core.blame import BlameConfig
from repro.core.votes import VotePolicy
from repro.discovery.agent import DiscoveredPath


def shard_of_host(host: str, num_shards: int) -> int:
    """The stable shard index of ``host`` (CRC32, identical in any process)."""
    return zlib.crc32(host.encode("utf-8")) % num_shards


#: evidence kind codes for the vectorized routing pass; anything mapping to
#: 2 (an exotic subclass) sends the run down the scanning path.
_KIND_CODE = {PathEvidence: 0, RetransmissionEvidence: 1}

#: below this run length the scanning path wins (fixed numpy overheads).
_FAST_RUN_MIN = 512

#: distinct-host cap for the vectorized router's interned table; fleets
#: churn hosts (VM turnover, renamed pods), so like ``_HostShardLru`` the
#: table must not grow without bound — past the cap it is rebuilt from
#: scratch (epoch-cache semantics; ids are only used within one call).
_HOST_INDEX_MAX = 131_072


class _HostShardLru:
    """A bounded host→shard memo (LRU) for the routing hot loop.

    A dict hit on an interned string is ~4x cheaper than re-hashing CRC32,
    but fleets churn hosts (VM turnover, renamed pods), so the memo must not
    grow without bound.  Plain insertion-ordered dict + ``move_to_end`` on
    hit gives true LRU semantics; misses just recompute the CRC.
    """

    __slots__ = ("_entries", "capacity")

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, int]" = OrderedDict()

    def lookup(self, host: str) -> Optional[int]:
        shard = self._entries.get(host)
        if shard is not None:
            self._entries.move_to_end(host)
        return shard

    def store(self, host: str, shard: int) -> None:
        entries = self._entries
        entries[host] = shard
        if len(entries) > self.capacity:
            entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, host: str) -> bool:
        return host in self._entries


class ShardedService:
    """``num_shards`` services behind one ingest/report facade.

    Constructor parameters mirror :class:`Zero07Service`; sinks observe the
    *merged* (fleet-wide) finalized reports.  ``backend`` selects where the
    shard services execute (``"inline"`` in-process, ``"process"`` on worker
    processes) and ``workers`` caps the process pool (default: one worker
    per shard).  The facade's routing state and its checkpoints are
    backend-agnostic: a checkpoint taken inline restores onto the process
    backend and vice versa, bit-identically.
    """

    def __init__(
        self,
        num_shards: int = 2,
        blame_config: Optional[BlameConfig] = None,
        vote_policy: VotePolicy = "inverse_hops",
        engine: EngineKind = "arrays",
        attribute_noise_flows: bool = False,
        sinks: Sequence[ReportSink] = (),
        retain_reports: int = 8,
        backend: str = "inline",
        workers: Optional[int] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if backend not in ("inline", "process"):
            raise ValueError(f"unknown shard backend {backend!r}")
        self._num_shards = num_shards
        self._backend = backend
        self._retain_reports = retain_reports
        service_config = dict(
            blame_config=blame_config,
            vote_policy=vote_policy,
            engine=engine,
            attribute_noise_flows=attribute_noise_flows,
            retain_reports=retain_reports,
        )
        #: merge-side analysis agent with its own persistent link index.
        self._merge_index = LinkIndex() if engine == "arrays" else None
        self._agent = AnalysisAgent(
            blame_config=blame_config,
            vote_policy=vote_policy,
            attribute_noise_flows=attribute_noise_flows,
            engine=engine,
            link_index=self._merge_index,
        )
        #: merged-column finalize only exists where it is bit-provable: the
        #: arrays engine (the dict engine's merged fold must replay).  The
        #: process executor's store lane owns all writes to it; the facade
        #: only reads behind :meth:`ShardExecutor.drain_store`.
        self._store: Optional[EvidenceColumnStore] = (
            EvidenceColumnStore(self._merge_index, vote_policy)
            if backend == "process" and engine == "arrays"
            else None
        )
        self._executor: ShardExecutor
        if backend == "inline":
            self._executor = InlineExecutor(num_shards, service_config)
        else:
            self._executor = ProcessExecutor(
                num_shards,
                service_config,
                workers=workers,
                link_index=self._merge_index,
                store=self._store,
            )
        self._sinks: List[ReportSink] = list(sinks)
        #: epoch -> flow id -> owning shard (routes retransmission updates).
        self._flow_shard: Dict[int, Dict[int, int]] = {}
        #: bounded host name -> shard memo (fleets churn hosts).
        self._shard_by_host = _HostShardLru()
        #: retransmission updates whose path evidence has not arrived yet.
        self._pending: Dict[int, Dict[int, int]] = {}
        #: epoch -> retransmission-update seqs already consumed at the facade
        #: (duplicate suppression must happen before the pending buffer).
        self._retrans_seqs: Dict[int, set] = {}
        #: epoch -> highest evidence seq consumed so far.  The vectorized
        #: routing pass proves a whole run duplicate-free with one compare
        #: against this watermark instead of per-update set membership.
        self._max_seq: Dict[int, int] = {}
        #: interned host names plus their CRC shard table, so bulk routing is
        #: one table gather over interned ids.
        self._host_index = ItemIndex()
        self._host_shards = np.zeros(0, dtype=np.int64)
        #: epochs with evidence routed to some shard and not yet finalized —
        #: tracked here so ticking never needs a worker round-trip — each
        #: with its change version: bumped on every admission for the epoch
        #: (conservatively: a duplicate may bump), so a merged report stays
        #: current exactly while its epoch's version stands.
        self._open: Dict[int, int] = {}
        #: open epoch -> (version it was merged at, the merged report).
        self._views: Dict[int, Tuple[int, EpochReport]] = {}
        self._final_reports: Dict[int, EpochReport] = {}
        self._last_finalized: Optional[int] = None
        self._max_epoch_seen: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of shard services behind the facade."""
        return self._num_shards

    @property
    def backend(self) -> str:
        """Which executor backend runs the shards (``inline``/``process``)."""
        return self._backend

    @property
    def executor(self) -> ShardExecutor:
        """The shard executor (transport/teardown live here)."""
        return self._executor

    def shard(self, index: int) -> Zero07Service:
        """The shard service at ``index`` (partition-local reports/stats).

        Only the inline backend can hand out the live object; the process
        backend raises :class:`ShardExecutorError` (use merged reports,
        ``executor.stats()`` or checkpoints instead).
        """
        return self._executor.shard_service(index)

    @property
    def current_epoch(self) -> Optional[int]:
        """The most advanced epoch seen across the fleet."""
        return self._max_epoch_seen

    @property
    def last_finalized_epoch(self) -> Optional[int]:
        """The highest epoch whose merged report was finalized by a tick
        (``None`` before the first)."""
        return self._last_finalized

    @property
    def fallback_events(self) -> int:
        """Events the shards replayed one at a time, summed over the fleet.

        Local and cheap on both backends: the process backend answers from
        what each worker last reported (with gathered evidence, a checkpoint,
        ``executor.stats()`` or a restore), never with a round trip of its
        own, so it may trail the workers until the next such reply.
        """
        return self._executor.fallback_events()

    def add_sink(self, sink: ReportSink) -> None:
        """Register a sink for future merged finalized reports."""
        self._sinks.append(sink)

    def close(self) -> None:
        """Tear down the executor (worker processes, pipes).  Idempotent."""
        self._executor.close()

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _seen_epoch(self, epoch: int) -> None:
        if self._max_epoch_seen is None or epoch > self._max_epoch_seen:
            self._max_epoch_seen = epoch

    def _touch(self, epoch: int) -> None:
        """Evidence for ``epoch`` was admitted: open it, outdate its view."""
        self._open[epoch] = self._open.get(epoch, 0) + 1

    def _is_late(self, epoch: int) -> bool:
        return self._last_finalized is not None and epoch <= self._last_finalized

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, event: Evidence) -> None:
        """Route one evidence event to its shard (ticks finalize the fleet)."""
        if isinstance(event, PathEvidence):
            if self._is_late(event.epoch):
                return
            self._seen_epoch(event.epoch)
            shard = shard_of_host(event.path.src_host, self._num_shards)
            self._flow_shard.setdefault(event.epoch, {})[event.path.flow_id] = shard
            self._touch(event.epoch)
            if event.seq is not None and event.seq > self._max_seq.get(
                event.epoch, -1
            ):
                self._max_seq[event.epoch] = event.seq
            if self._store is not None:
                self._executor.mark_dirty(event.epoch)
            self._executor.submit_event(shard, event)
            pending = self._pending.get(event.epoch, {}).pop(event.path.flow_id, 0)
            if pending:
                self._executor.submit_event(
                    shard,
                    RetransmissionEvidence(
                        epoch=event.epoch,
                        flow_id=event.path.flow_id,
                        retransmissions=pending,
                    ),
                )
        elif isinstance(event, RetransmissionEvidence):
            if self._is_late(event.epoch):
                return
            self._seen_epoch(event.epoch)
            if event.seq is not None:
                seen = self._retrans_seqs.setdefault(event.epoch, set())
                if event.seq in seen:
                    return
                seen.add(event.seq)
                if event.seq > self._max_seq.get(event.epoch, -1):
                    self._max_seq[event.epoch] = event.seq
            shard = self._flow_shard.get(event.epoch, {}).get(event.flow_id)
            if shard is None:
                epoch_pending = self._pending.setdefault(event.epoch, {})
                epoch_pending[event.flow_id] = (
                    epoch_pending.get(event.flow_id, 0) + event.retransmissions
                )
            else:
                self._touch(event.epoch)
                if self._store is not None:
                    self._executor.mark_dirty(event.epoch)
                self._executor.submit_event(shard, event)
        elif isinstance(event, EpochTick):
            if self._is_late(event.epoch):
                return
            self._seen_epoch(event.epoch)
            self._finalize_through(event.epoch)
            self._executor.tick(event.epoch)
        else:
            raise TypeError(f"not an evidence event: {event!r}")

    def ingest_batch(self, events, owned: bool = False) -> None:
        """Ingest many evidence events in order.

        Homogeneous runs are routed in bulk: path runs are partitioned by
        shard in one pass and handed to each shard's own batched
        :meth:`Zero07Service.ingest_batch` (which takes its vectorized fast
        path, since per-shard sub-runs preserve increasing sequence order),
        and retransmission runs are deduplicated at the facade with one set
        operation before shard-side per-flow aggregation.  Events violating
        the fast-path preconditions (duplicates, buffered pending updates,
        unknown flows) fall back to :meth:`ingest` individually — the
        surrounding bulk stretches stay on the fast path and results are
        bit-identical either way.  ``owned=True`` lets the process backend
        read the events on its wire lane after this call returns (the shard
        services themselves never copy or write to a path, ``owned`` or not).
        """
        if "ingest" in self.__dict__:
            # ``ingest`` was wrapped on the instance (an EvidenceRecorder
            # tap) — every event must flow through the wrapper.
            for event in events:
                self.ingest(event)
            return
        events = events if isinstance(events, list) else list(events)
        for kind, epoch, chunk in iter_evidence_runs(events):
            if kind == "run":
                self._ingest_evidence_run(epoch, chunk, owned)
            else:
                self.ingest(chunk[0])

    def ingest_run(
        self,
        epoch: int,
        run: List[Evidence],
        owned: bool = False,
        seqs: Optional[np.ndarray] = None,
    ) -> None:
        """Hand one single-epoch evidence run straight to the routing core.

        The sharded twin of :meth:`Zero07Service.ingest_run` — the hand-off
        hook for transports that already segmented the stream into one
        epoch's tickless run.  ``seqs`` is accepted for signature parity but
        unused: the routing pass re-derives sequence numbers as part of its
        single validation scan.
        """
        if "ingest" in self.__dict__:
            for event in run:
                self.ingest(event)
            return
        self._ingest_evidence_run(epoch, run, owned)

    def _commit_stretch(
        self,
        epoch: int,
        stretch: List[Evidence],
        sub_runs: List[list],
        run_flows: Dict[int, int],
        run_seqs: set,
        owned: bool,
    ) -> None:
        """Commit one validated bulk stretch: facade state, store, shards."""
        self._seen_epoch(epoch)
        self._touch(epoch)
        if run_flows:
            self._flow_shard.setdefault(epoch, {}).update(run_flows)
        if run_seqs:
            self._retrans_seqs.setdefault(epoch, set()).update(run_seqs)
        top = max(
            (event.seq for event in stretch if event.seq is not None),
            default=None,
        )
        if top is not None and top > self._max_seq.get(epoch, -1):
            self._max_seq[epoch] = top
        self._executor.submit_runs(epoch, stretch, sub_runs, owned)

    def _ingest_run_fast(self, epoch: int, run, owned: bool) -> bool:
        """Route one large clean run with numpy instead of a Python scan.

        Returns ``False`` (having changed nothing) unless the whole run is
        provably equivalent to the scanning path: every event carries a seq
        and the seqs strictly extend everything this epoch has consumed
        (``seqs[0] > _max_seq`` subsumes every per-update duplicate check),
        no facade-buffered pending counts exist for the epoch, and no
        update's routing is order-dependent.  The routing itself is one
        interned-host gather plus a CRC table lookup; only the (sparse)
        count updates pay a Python-level loop.
        """
        n = len(run)
        if n < _FAST_RUN_MIN or self._pending.get(epoch):
            return False
        try:
            seqs = np.fromiter(
                map(operator.attrgetter("seq"), run), dtype=np.int64, count=n
            )
        except TypeError:  # a seq-less event somewhere in the run
            return False
        if seqs[0] <= self._max_seq.get(epoch, -1):
            return False
        if not bool((seqs[1:] > seqs[:-1]).all()):
            return False
        code_of = _KIND_CODE.get
        kinds = np.fromiter(
            (code_of(type(e), 2) for e in run), dtype=np.int8, count=n
        )
        path_mask = kinds == 0
        n_paths = int(path_mask.sum())
        if n_paths == n:
            paths = run
        else:
            if int(kinds.max()) > 1:
                return False
            paths = list(compress(run, path_mask.tolist()))

        if len(self._host_index) > _HOST_INDEX_MAX:
            self._host_index = ItemIndex()
            self._host_shards = np.zeros(0, dtype=np.int64)
        host_ids = self._host_index.fast_ids([e.path.src_host for e in paths])
        table = self._host_shards
        if len(table) < len(self._host_index):
            known = self._host_index.items
            fresh = np.fromiter(
                (zlib.crc32(host.encode("utf-8")) for host in known[len(table):]),
                dtype=np.int64,
                count=len(known) - len(table),
            )
            table = self._host_shards = np.concatenate(
                [table, fresh % self._num_shards]
            )
        path_shards = table[host_ids]
        flows = [e.path.flow_id for e in paths]
        run_map = dict(zip(flows, path_shards.tolist()))

        shard_ids = np.empty(n, dtype=np.int64)
        shard_ids[path_mask] = path_shards
        upd_seqs: list = []
        if n_paths != n:
            if len(run_map) != n_paths:
                # a re-traced flow makes in-run update routing order-dependent
                return False
            run_get = run_map.get
            epoch_get = self._flow_shard.get(epoch, {}).get
            for position in np.flatnonzero(~path_mask).tolist():
                flow = run[position].flow_id
                shard = run_get(flow)
                placed = epoch_get(flow)
                if shard is None:
                    if placed is None:
                        return False  # unknown flow buffers at the facade
                    shard = placed
                elif placed is not None and placed != shard:
                    # an update-before-re-trace could legally route either way
                    return False
                shard_ids[position] = shard
            upd_seqs = seqs[~path_mask].tolist()

        # -- provably routable: commit facade state and hand off --------
        self._seen_epoch(epoch)
        self._touch(epoch)
        if run_map:
            self._flow_shard.setdefault(epoch, {}).update(run_map)
        if upd_seqs:
            self._retrans_seqs.setdefault(epoch, set()).update(upd_seqs)
        self._max_seq[epoch] = int(seqs[-1])
        self._executor.submit_vector_run(epoch, run, shard_ids, seqs, owned)
        return True

    def _ingest_evidence_run(self, epoch: int, run, owned: bool) -> None:
        """Partition one epoch's evidence run across the shards.

        A single pass validates *and* partitions.  Maximal stretches of
        events that are provably routable without facade buffering (every
        count update carries a fresh seq and its flow's path is already
        placed; no path's flow has buffered pending counts) are committed in
        bulk; the individual events that break a stretch — an update for an
        unknown flow, a duplicate, a path with pending counts waiting —
        go through the per-event path, and the scan resumes a new stretch
        right after.  Facade state for a stretch is only committed once the
        whole stretch proves routable, so the per-event path never sees a
        half-applied stretch.
        """
        if self._is_late(epoch):
            return
        if self._ingest_run_fast(epoch, run, owned):
            return
        per_event = self.ingest
        if len(run) < 8:
            for event in run:
                per_event(event)
            return
        flow_map_get = self._flow_shard.get(epoch, {}).get
        seen = self._retrans_seqs.get(epoch, set())
        num_shards = self._num_shards
        cache_lookup = self._shard_by_host.lookup
        cache_store = self._shard_by_host.store
        pending = self._pending.get(epoch)
        pending_contains = pending.__contains__ if pending else None

        start = 0  # first event of the open stretch
        run_flows: Dict[int, int] = {}
        run_seqs: set = set()
        sub_runs: List[list] = [[] for _ in range(num_shards)]
        appends = [sub.append for sub in sub_runs]

        def refresh() -> None:
            # per-event calls and stretch commits may create the epoch's
            # facade dicts/sets — re-resolve the captured fast handles so
            # later checks see what the per-event path recorded.
            nonlocal flow_map_get, seen, pending, pending_contains
            flow_map_get = self._flow_shard.get(epoch, {}).get
            seen = self._retrans_seqs.get(epoch, set())
            pending = self._pending.get(epoch)
            pending_contains = pending.__contains__ if pending else None

        def flush(stop: int) -> None:
            nonlocal start, run_flows, run_seqs, sub_runs, appends
            if stop > start:
                self._commit_stretch(
                    epoch, run[start:stop], sub_runs, run_flows, run_seqs, owned
                )
                run_flows = {}
                run_seqs = set()
                sub_runs = [[] for _ in range(num_shards)]
                appends = [sub.append for sub in sub_runs]
            refresh()

        def punt(position: int, event: Evidence) -> None:
            # this event breaks the open stretch: commit the stretch, run the
            # event through the per-event path, and resume scanning after it.
            nonlocal start
            flush(position)
            per_event(event)
            start = position + 1
            refresh()

        for position, event in enumerate(run):
            if type(event) is PathEvidence:
                flow_id = event.path.flow_id
                if pending_contains is not None and pending_contains(flow_id):
                    # buffered counts must be synthesized right after this
                    # path — per-event territory.
                    punt(position, event)
                    continue
                host = event.path.src_host
                shard = cache_lookup(host)
                if shard is None:
                    shard = shard_of_host(host, num_shards)
                    cache_store(host, shard)
                run_flows[flow_id] = shard
            elif type(event) is RetransmissionEvidence:
                seq = event.seq
                if seq is None or seq in seen or seq in run_seqs:
                    punt(position, event)
                    continue
                shard = run_flows.get(event.flow_id)
                if shard is None:
                    shard = flow_map_get(event.flow_id)
                    if shard is None:
                        # unknown flow: buffers at the facade — per-event.
                        punt(position, event)
                        continue
                run_seqs.add(seq)
            else:
                # exotic kind (e.g. a subclass): per-event handles/rejects it.
                punt(position, event)
                continue
            appends[shard](event)
        flush(len(run))

    # ------------------------------------------------------------------
    # merged materialization
    # ------------------------------------------------------------------
    def _merged_paths(self, epoch: int) -> List[DiscoveredPath]:
        merged: List[Tuple[int, DiscoveredPath]] = list(
            self._executor.evidence_for_epoch(epoch)
        )
        merged.sort(key=lambda record: record[0])
        return [path for _, path in merged]

    def _merged_report(self, epoch: int) -> EpochReport:
        """The fleet-wide report, from the merged tally or gathered replay.

        Both paths fold the epoch's evidence in global sequence order, so
        they are bit-identical; the column store already folded each run
        when it was appended, so a provably clean epoch skips the worker
        round-trip and the per-path replay and costs only a snapshot.
        """
        if self._store is not None:
            self._executor.drain_store()
            if self._store.is_clean(epoch):
                tally = self._store.build_tally(epoch)
                if tally is not None:
                    return self._agent.analyze_tally(epoch, tally)
        return self._agent.analyze_epoch(epoch, self._merged_paths(epoch))

    def report(self, epoch: Optional[int] = None) -> EpochReport:
        """The merged fleet-wide report of ``epoch`` (mid-epoch queries work).

        Bit-identical to an unsharded :meth:`Zero07Service.report` over the
        same evidence stream: the merge folds all shards' evidence in the
        global sequence order the source emitted it in.  An open epoch keeps
        its last merged report as a versioned view: while the facade admitted
        no evidence for the epoch since the previous query, the identical
        report object is returned — before any store drain or worker round
        trip.
        """
        if epoch is None:
            epoch = self._max_epoch_seen if self._max_epoch_seen is not None else 0
            if (
                epoch not in self._final_reports
                and self._last_finalized is not None
                and epoch <= self._last_finalized
            ):
                # mirror Zero07Service: after a boundary restore, "right now"
                # is the next open epoch, not the unserialized closed one.
                epoch = self._last_finalized + 1
        if epoch in self._final_reports:
            return self._final_reports[epoch]
        if self._is_late(epoch):
            raise ReportUnavailableError(
                epoch, self._last_finalized, self._retain_reports
            )
        version = self._open.get(epoch)
        if version is None:
            return self._merged_report(epoch)  # no evidence: nothing to keep
        view = self._views.get(epoch)
        if view is None or view[0] != version:
            view = self._views[epoch] = (version, self._merged_report(epoch))
        return view[1]

    def _finalize_through(self, epoch: int) -> None:
        # mirror Zero07Service: every epoch up to the tick finalizes, gap
        # (evidence-less) epochs included, one merged report per epoch.
        open_epochs = [e for e in self._open if e <= epoch]
        if self._last_finalized is not None:
            start = self._last_finalized + 1
        elif open_epochs:
            start = min(open_epochs)
        else:
            start = epoch
        # hold back the executor's encode/send work while we finalize: the
        # merged reports come from the coordinator's own columns, and the
        # wire traffic (which the workers consume at their own pace) would
        # otherwise compete for the CPU inside this latency-sensitive window.
        self._executor.pause_wire()
        try:
            for e in range(start, epoch + 1):
                report = self._merged_report(e)
                self._final_reports[e] = report
                while len(self._final_reports) > self._retain_reports:
                    del self._final_reports[next(iter(self._final_reports))]
                if self._last_finalized is None or e > self._last_finalized:
                    self._last_finalized = e
                for sink in self._sinks:
                    sink.on_report(report)
                self._flow_shard.pop(e, None)
                self._pending.pop(e, None)
                self._retrans_seqs.pop(e, None)
                self._max_seq.pop(e, None)
                self._open.pop(e, None)
                self._views.pop(e, None)
                if self._store is not None:
                    self._executor.forget_epoch(e)
        finally:
            self._executor.resume_wire()

    def advance_epoch(self, epoch: int) -> EpochReport:
        """Tick ``epoch`` closed fleet-wide and return the merged report."""
        self.ingest(EpochTick(epoch))
        return self.report(epoch)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, base: Optional[Checkpoint] = None) -> Checkpoint:
        """Snapshot the whole fleet (every shard plus the routing state).

        The payload is backend-agnostic — the process executor gathers its
        workers' shard states into exactly the structure the inline backend
        writes, so checkpoints restore across backends.  With ``base`` — a
        *full* sharded checkpoint taken earlier from this same fleet — the
        result is a **delta** checkpoint carrying only the evidence and
        routing state that changed since the base; apply it with
        ``base.apply_delta(delta)`` before restoring.
        """
        bases = None
        if base is not None:
            base.validate()
            if base.is_delta:
                raise ValueError(
                    "the base of a delta checkpoint must be a full checkpoint"
                )
            if base.kind != "sharded":
                raise ValueError(
                    f"base checkpoint kind {base.kind!r} does not match 'sharded'"
                )
            base = base.columnar()
            bases = shard_bases(base, self._num_shards)
        shards, columns = assemble_shards(self._executor.checkpoint_shards(bases))
        payload: Dict[str, Any] = {
            "version": CHECKPOINT_VERSION,
            "kind": "sharded",
            "num_shards": self._num_shards,
            "retain_reports": self._retain_reports,
            "max_epoch_seen": self._max_epoch_seen,
            "last_finalized": self._last_finalized,
            "flow_shard": {
                str(epoch): {str(flow): shard for flow, shard in flows.items()}
                for epoch, flows in self._flow_shard.items()
            },
            "pending": {
                str(epoch): {str(flow): count for flow, count in flows.items()}
                for epoch, flows in self._pending.items()
            },
            "retrans_seqs": {
                str(epoch): sorted(seqs)
                for epoch, seqs in self._retrans_seqs.items()
            },
            "shards": shards,
        }
        if base is not None:
            payload = sharded_payload_delta(payload, base)
        return Checkpoint(payload, columns)

    @classmethod
    def restore(
        cls,
        checkpoint: Checkpoint,
        sinks: Sequence[ReportSink] = (),
        backend: str = "inline",
        workers: Optional[int] = None,
    ) -> "ShardedService":
        """Rebuild a sharded fleet from a :class:`Checkpoint`.

        ``backend``/``workers`` choose the execution strategy of the restored
        fleet independently of the one that took the checkpoint.  Works for
        both serializations (v1 JSON and v2 binary); delta checkpoints must
        be applied to their base first.
        """
        payload = checkpoint.validate().payload
        if checkpoint.is_delta:
            raise ValueError(
                "cannot restore a delta checkpoint directly; merge it onto "
                "its full base first with base.apply_delta(delta)"
            )
        if payload.get("kind") != "sharded":
            raise ValueError(f"not a sharded checkpoint: kind={payload.get('kind')!r}")
        checkpoint = checkpoint.columnar()
        payload = checkpoint.payload
        shard_payloads = payload["shards"]
        first = shard_payloads[0]
        from repro.api.checkpoint import blame_from_dict

        fleet = cls(
            num_shards=int(payload["num_shards"]),
            blame_config=blame_from_dict(first["blame"]),
            vote_policy=first["vote_policy"],
            engine=first["engine"],
            attribute_noise_flows=bool(first["attribute_noise_flows"]),
            sinks=sinks,
            retain_reports=int(payload["retain_reports"]),
            backend=backend,
            workers=workers,
        )
        fleet._executor.restore_shards(shard_payloads, checkpoint.columns)
        fleet._flow_shard = {
            int(epoch): {int(flow): int(shard) for flow, shard in flows.items()}
            for epoch, flows in payload["flow_shard"].items()
        }
        fleet._pending = {
            int(epoch): {int(flow): int(count) for flow, count in flows.items()}
            for epoch, flows in payload["pending"].items()
        }
        fleet._retrans_seqs = {
            int(epoch): {int(seq) for seq in seqs}
            for epoch, seqs in payload.get("retrans_seqs", {}).items()
        }
        for shard_payload in shard_payloads:
            for epoch_data in shard_payload.get("epochs", []):
                fleet._touch(int(epoch_data["epoch"]))
        if fleet._store is not None:
            # restored epochs were not streamed through the column store —
            # their merged reports come from gather-and-replay.
            for epoch in fleet._open:
                fleet._executor.mark_dirty(epoch)
        for epoch, seqs in fleet._retrans_seqs.items():
            # seed the seq watermark so the vectorized routing pass stays
            # duplicate-safe against pre-checkpoint update seqs.
            if seqs:
                fleet._max_seq[epoch] = max(seqs)
        fleet._max_epoch_seen = (
            int(payload["max_epoch_seen"])
            if payload["max_epoch_seen"] is not None
            else None
        )
        fleet._last_finalized = (
            int(payload["last_finalized"])
            if payload["last_finalized"] is not None
            else None
        )
        return fleet
