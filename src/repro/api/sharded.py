"""Flow-sharded composition of :class:`~repro.api.service.Zero07Service`.

The 007 analysis is voting — and votes merge.  :class:`ShardedService`
places every evidence event on shard ``flow_id % num_shards`` (a path's
``path.flow_id``, an update's ``flow_id``), and materializes *fleet-wide*
reports by merging the shards' evidence back in global sequence order.
Everything the analysis reads of an event — the vote its path casts, the
retransmission count, the duplicate identity (``seq``), the highest-seq
binding of count updates — is scoped to one flow, and a flow never spans
shards, so each shard service applies every rule locally, exactly as an
unsharded service would: the facade keeps no routing state.  Because every
path event carries its per-epoch sequence number, the merged view
reconstructs exactly the stream an unsharded service would have ingested, so
a sharded deployment agrees bit-for-bit with a single service — the property
that makes scale-out safe.

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
  cannot prove clean (reordering, duplicates, updates ahead of their path,
  per-event ingestion, restores) mark the epoch dirty and finalize falls
  back to gather-and-replay, identical to the inline path.

Per-shard reports remain available through :meth:`ShardedService.shard` on
the inline backend; under the process backend the shard services live in
workers and :meth:`shard` raises
:class:`~repro.api.executor.ShardExecutorError`.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    assemble_shards,
    payload_fingerprint,
    shard_bases,
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
from repro.api.wire import EvidenceColumnStore, seqs_of
from repro.core.analysis import AnalysisAgent, EngineKind, EpochReport
from repro.core.arrays import LinkIndex
from repro.core.blame import BlameConfig
from repro.core.votes import VotePolicy
from repro.discovery.agent import DiscoveredPath


def shard_of_host(host: str, num_shards: int) -> int:
    """The stable CRC32 shard index of ``host`` (identical in any process).

    Not the facade's placement — :class:`ShardedService` places by
    ``flow_id % num_shards``.  Exported only because the ruler's layer replay
    (``ruler/layers.py``) still partitions its sub-runs by host.
    """
    return zlib.crc32(host.encode("utf-8")) % num_shards


class ShardedService:
    """``num_shards`` services behind one ingest/report facade.

    Constructor parameters mirror :class:`Zero07Service`; sinks observe the
    *merged* (fleet-wide) finalized reports.  ``backend`` selects where the
    shard services execute (``"inline"`` in-process, ``"process"`` on worker
    processes) and ``workers`` caps the process pool (default: one worker
    per shard).  Every event goes to shard ``flow_id % num_shards``, and
    checkpoints are backend-agnostic: a checkpoint taken inline restores
    onto the process backend and vice versa, bit-identically.
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
        """Route one evidence event to shard ``flow_id % num_shards`` (ticks
        finalize the fleet)."""
        if isinstance(event, PathEvidence):
            flow_id = event.path.flow_id
        elif isinstance(event, RetransmissionEvidence):
            flow_id = event.flow_id
        elif isinstance(event, EpochTick):
            if self._is_late(event.epoch):
                return
            self._seen_epoch(event.epoch)
            self._finalize_through(event.epoch)
            self._executor.tick(event.epoch)
            return
        else:
            raise TypeError(f"not an evidence event: {event!r}")
        if self._is_late(event.epoch):
            return
        self._seen_epoch(event.epoch)
        self._touch(event.epoch)
        if self._store is not None:
            self._executor.mark_dirty(event.epoch)
        self._executor.submit_event(flow_id % self._num_shards, event)

    def ingest_batch(self, events, owned: bool = False) -> None:
        """Ingest many evidence events in order.

        Every maximal single-epoch evidence run is placed in one vectorized
        pass (:meth:`ingest_run`) and each shard's sub-run goes to that
        shard's own batched admission, which folds it in bulk or replays it
        per event exactly as an unsharded service would; ticks and other
        kinds go through :meth:`ingest`.  ``owned=True`` lets the process
        backend read the events on its wire lane after this call returns (the
        shard services themselves never copy or write to a path, ``owned`` or
        not).
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
                self.ingest_run(epoch, chunk, owned)
            else:
                self.ingest(chunk[0])

    def ingest_run(
        self,
        epoch: int,
        run: List[Evidence],
        owned: bool = False,
        seqs: Optional[np.ndarray] = None,
    ) -> None:
        """Place one single-epoch evidence run on the shards in one pass.

        The sharded twin of :meth:`Zero07Service.ingest_run` — the hand-off
        hook for transports that already segmented the stream into one
        epoch's tickless run of :class:`PathEvidence` and
        :class:`RetransmissionEvidence`.  ``seqs`` (the run's sequence
        numbers, as :func:`~repro.api.wire.seqs_of` computes them) is passed
        through to the column store and the shards instead of re-derived.
        Each shard's sub-run keeps the run's order, so every shard service
        sees exactly its flows' slice of the stream an unsharded service
        would, and handles duplicates, reordering and updates ahead of their
        path the same way.
        """
        if "ingest" in self.__dict__:
            for event in run:
                self.ingest(event)
            return
        if not run or self._is_late(epoch):
            return
        flows = np.fromiter(
            (
                e.flow_id if type(e) is RetransmissionEvidence else e.path.flow_id
                for e in run
            ),
            dtype=np.int64,
            count=len(run),
        )
        self._seen_epoch(epoch)
        self._touch(epoch)
        self._executor.submit_vector_run(
            epoch,
            run,
            flows % self._num_shards,
            seqs_of(run) if seqs is None else seqs,
            owned,
        )

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
        """Snapshot the whole fleet (every shard plus the epoch markers).

        The payload is backend-agnostic — the process executor gathers its
        workers' shard states into exactly the structure the inline backend
        writes, so checkpoints restore across backends.  With ``base`` — a
        *full* sharded checkpoint taken earlier from this same fleet — the
        result is a **delta** checkpoint carrying only the evidence that
        changed since the base; apply it with ``base.apply_delta(delta)``
        before restoring.
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
            "shards": shards,
        }
        if base is not None:
            payload["delta"] = True
            payload["base"] = payload_fingerprint(base.payload, base.columns)
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
        be applied to their base first.  A checkpoint written when shards
        were placed by host is refused with ``ValueError``
        (:meth:`Checkpoint.validate`).
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
        for shard_payload in shard_payloads:
            for epoch_data in shard_payload.get("epochs", []):
                fleet._touch(int(epoch_data["epoch"]))
        if fleet._store is not None:
            # restored epochs were not streamed through the column store —
            # their merged reports come from gather-and-replay.
            for epoch in fleet._open:
                fleet._executor.mark_dirty(epoch)
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
