"""Flow-sharded composition of :class:`~repro.api.service.Zero07Service`.

:class:`ShardedService` places every evidence event on shard ``flow_id %
num_shards`` (a path's ``path.flow_id``, an update's ``flow_id``), and keeps
the fleet-wide view in one **coordinator** :class:`Zero07Service` that
ingests every event and run the facade places, on the caller's thread,
before the shards see it.  That is the paper's analysis agent: one tally of
every host's evidence, one run of Algorithm 1 over it.  Reports, ticks,
sinks, retention, the epoch markers, ``fallback_events`` and checkpoints all
come from the coordinator, so a sharded deployment agrees bit-for-bit with a
single service by construction — it *is* one.

Everything the analysis reads of an event — the vote its path casts, the
retransmission count, the duplicate identity (``seq``), the highest-seq
binding of count updates — is scoped to one flow, and a flow never spans
shards, so each shard service holds exactly the unsharded service's view of
its flows: the partition-local reports of :meth:`ShardedService.shard` and
the per-shard counters of ``executor.stats()``.

Where the shards *run* is pluggable (:mod:`repro.api.executor`):

* ``backend="inline"`` (default) — every shard in this process.
* ``backend="process"`` — shards hosted by worker processes behind the
  binary evidence transport of :mod:`repro.api.wire`; the caller's thread
  folds and routes, and the executor's wire lane encodes and sends.

Per-shard services are handed out by :meth:`ShardedService.shard` on the
inline backend; under the process backend they live in workers and
:meth:`shard` raises :class:`~repro.api.executor.ShardExecutorError`.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.checkpoint import (
    Checkpoint,
    CheckpointColumns,
    ColumnsBuilder,
    blame_from_dict,
    epoch_columns,
    take_rows,
)
from repro.api.events import (
    EpochTick,
    Evidence,
    PathEvidence,
    RetransmissionEvidence,
)
from repro.api.executor import InlineExecutor, ProcessExecutor, ShardExecutor
from repro.api.service import ReportSink, Zero07Service, iter_evidence_runs
from repro.api.wire import seqs_of
from repro.core.analysis import EngineKind, EpochReport
from repro.core.blame import BlameConfig
from repro.core.votes import VotePolicy


def shard_of_host(host: str, num_shards: int) -> int:
    """The stable CRC32 shard index of ``host`` (identical in any process).

    Not the facade's placement — :class:`ShardedService` places by
    ``flow_id % num_shards``.  Exported only because the ruler's layer replay
    (``ruler/layers.py``) still partitions its sub-runs by host.
    """
    return zlib.crc32(host.encode("utf-8")) % num_shards


def _relabel(checkpoint: Checkpoint, **fields: Any) -> Checkpoint:
    """``checkpoint`` with ``fields`` set in its payload (columns shared)."""
    return Checkpoint({**checkpoint.payload, **fields}, checkpoint.columns)


def split_by_flow(
    checkpoint: Checkpoint, num_shards: int
) -> Tuple[List[Dict[str, Any]], CheckpointColumns]:
    """The shard payloads of a columnar sharded checkpoint, for
    :meth:`~repro.api.executor.ShardExecutor.restore_shards`.

    Shard ``i`` gets every epoch's records of the flows with ``flow %
    num_shards == i``, in arrival order, and their pending counts; every
    shard gets the epoch's consumed update seqs (an update carries no flow,
    and seqs are unique per epoch).  Shard counters restart from the
    restored records.
    """
    payload, columns = checkpoint.payload, checkpoint.columns
    builder = ColumnsBuilder()
    shards = [
        {**payload, "kind": "service", "stats": {}, "epochs": []}
        for _ in range(num_shards)
    ]
    for entry in payload["epochs"]:
        cols = epoch_columns(entry, columns)
        owner = cols["flow"] % num_shards
        for shard, body in enumerate(shards):
            part = take_rows(cols, np.flatnonzero(owner == shard))
            part["rs"] = cols["rs"]
            pending = {
                flow: count
                for flow, count in entry["pending_retransmissions"].items()
                if int(flow) % num_shards == shard
            }
            prefix = f"s{shard}e{len(body['epochs'])}"
            body["epochs"].append(
                builder.add_epoch(prefix, entry["epoch"], part, pending)
            )
    return shards, CheckpointColumns(builder.arrays, columns.names, columns.links)


class ShardedService:
    """``num_shards`` services behind one ingest/report facade.

    Constructor parameters mirror :class:`Zero07Service`; the coordinator
    service is built from them and sinks observe its (fleet-wide) finalized
    reports.  ``backend`` selects where the shard services execute
    (``"inline"`` in-process, ``"process"`` on worker processes) and
    ``workers`` caps the process pool (default: one worker per shard).  Every
    event goes to shard ``flow_id % num_shards``, and checkpoints are
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
        service_config = dict(
            blame_config=blame_config,
            vote_policy=vote_policy,
            engine=engine,
            attribute_noise_flows=attribute_noise_flows,
            retain_reports=retain_reports,
        )
        #: the fleet-wide view: every placed event and run, in placement order.
        self._service = Zero07Service(**service_config, sinks=sinks)
        self._executor: ShardExecutor
        if backend == "inline":
            self._executor = InlineExecutor(num_shards, service_config)
        else:
            self._executor = ProcessExecutor(
                num_shards, service_config, workers=workers
            )

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
        backend raises :class:`ShardExecutorError` (use fleet-wide reports,
        ``executor.stats()`` or checkpoints instead).
        """
        return self._executor.shard_service(index)

    @property
    def current_epoch(self) -> Optional[int]:
        """The most advanced epoch seen across the fleet."""
        return self._service.current_epoch

    @property
    def last_finalized_epoch(self) -> Optional[int]:
        """The highest epoch finalized by a tick (``None`` before the first)."""
        return self._service.last_finalized_epoch

    @property
    def fallback_events(self) -> int:
        """Events of delivered runs the fleet-wide view replayed one at a
        time — an unsharded service's count; never a worker round trip."""
        return self._service.stats.fallback_events

    def add_sink(self, sink: ReportSink) -> None:
        """Register a sink for future fleet-wide finalized reports."""
        self._service.add_sink(sink)

    def close(self) -> None:
        """Tear down the executor (worker processes, pipes).  Idempotent."""
        self._executor.close()

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _is_late(self, epoch: int) -> bool:
        last = self._service.last_finalized_epoch
        return last is not None and epoch <= last

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, event: Evidence) -> None:
        """Ingest one event into the fleet-wide view, then route it to shard
        ``flow_id % num_shards`` (ticks finalize the fleet and broadcast)."""
        executor = self._executor
        if isinstance(event, EpochTick):
            executor.check()
            late = self._is_late(event.epoch)
            # hold back the wire lane's encode/send work while the
            # coordinator finalizes: the workers consume it at their own
            # pace, and it would compete for the CPU inside this window.
            executor.pause_wire()
            try:
                self._service.ingest(event)
            finally:
                executor.resume_wire()
            if not late:
                executor.tick(event.epoch)
            return
        self._service.ingest(event)  # checks the event first
        if self._is_late(event.epoch):
            return
        flow_id = (
            event.path.flow_id if isinstance(event, PathEvidence) else event.flow_id
        )
        executor.submit_event(flow_id % self._num_shards, event)

    def ingest_batch(self, events, owned: bool = False) -> None:
        """Ingest many evidence events in order.

        Every maximal single-epoch evidence run goes through
        :meth:`ingest_run`; ticks and other kinds go through :meth:`ingest`.
        ``owned=True`` lets the process backend read the events on its wire
        lane after this call returns (the services themselves never copy or
        write to a path, ``owned`` or not).
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
        """Ingest one single-epoch evidence run, then place it on the shards
        in one vectorized pass.

        The sharded twin of :meth:`Zero07Service.ingest_run` — the hand-off
        hook for transports that already segmented the stream into one
        epoch's tickless run of :class:`PathEvidence` and
        :class:`RetransmissionEvidence`.  ``seqs`` (the run's sequence
        numbers, as :func:`~repro.api.wire.seqs_of` computes them) is passed
        through to the coordinator and the shards instead of re-derived.
        The coordinator folds the run before it is queued for the wire lane.
        Each shard's sub-run keeps the run's order, so every shard service
        sees exactly its flows' slice of the stream.
        """
        if "ingest" in self.__dict__:
            for event in run:
                self.ingest(event)
            return
        if not run:
            return
        if seqs is None:
            seqs = seqs_of(run)
        self._service.ingest_run(epoch, run, owned, seqs)
        if self._is_late(epoch):
            return
        flows = np.fromiter(
            (
                e.flow_id if type(e) is RetransmissionEvidence else e.path.flow_id
                for e in run
            ),
            dtype=np.int64,
            count=len(run),
        )
        self._executor.submit_vector_run(
            epoch, run, flows % self._num_shards, seqs, owned
        )

    # ------------------------------------------------------------------
    # reports
    # ------------------------------------------------------------------
    def report(self, epoch: Optional[int] = None) -> EpochReport:
        """The fleet-wide report of ``epoch`` (mid-epoch queries work).

        The coordinator service's :meth:`Zero07Service.report` — its cached
        view, ``epoch=None``, retention and
        :class:`~repro.api.service.ReportUnavailableError` included — with
        no worker round trip.
        """
        self._executor.check()
        return self._service.report(epoch)

    def advance_epoch(self, epoch: int) -> EpochReport:
        """Tick ``epoch`` closed fleet-wide and return its report."""
        self.ingest(EpochTick(epoch))
        return self.report(epoch)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, base: Optional[Checkpoint] = None) -> Checkpoint:
        """Snapshot the fleet: the coordinator service's checkpoint payload
        plus ``kind: "sharded"`` and ``num_shards``, without a worker round
        trip.

        With ``base`` — a *full* sharded checkpoint taken earlier from this
        same fleet — the result is a **delta** checkpoint carrying only the
        evidence that changed since the base; apply it with
        ``base.apply_delta(delta)`` before restoring.
        """
        self._executor.check()
        if base is not None:
            base.validate()
            if base.kind != "sharded":
                raise ValueError(
                    f"base checkpoint kind {base.kind!r} does not match 'sharded'"
                )
            base = _relabel(base, kind="service")
        return _relabel(
            self._service.checkpoint(base),
            kind="sharded",
            num_shards=self._num_shards,
        )

    @classmethod
    def restore(
        cls,
        checkpoint: Checkpoint,
        sinks: Sequence[ReportSink] = (),
        backend: str = "inline",
        workers: Optional[int] = None,
    ) -> "ShardedService":
        """Rebuild a sharded fleet from a :class:`Checkpoint`.

        Restores the coordinator service, then each shard from its flows'
        rows (:func:`split_by_flow`).  ``backend``/``workers`` choose the
        execution strategy of the restored fleet independently of the one
        that took the checkpoint.  Works for both serializations (v1 JSON
        and v2 binary); delta checkpoints must be applied to their base
        first.  A checkpoint of the old shape, with one payload per shard,
        is refused with ``ValueError`` (:meth:`Checkpoint.validate`).
        """
        checkpoint.validate()
        if checkpoint.kind != "sharded":
            raise ValueError(f"not a sharded checkpoint: kind={checkpoint.kind!r}")
        checkpoint = checkpoint.columnar()
        service = Zero07Service.restore(_relabel(checkpoint, kind="service"), sinks)
        payload = checkpoint.payload
        fleet = cls(
            num_shards=int(payload["num_shards"]),
            blame_config=blame_from_dict(payload["blame"]),
            vote_policy=payload["vote_policy"],
            engine=payload["engine"],
            attribute_noise_flows=bool(payload["attribute_noise_flows"]),
            retain_reports=int(payload["retain_reports"]),
            backend=backend,
            workers=workers,
        )
        fleet._service = service
        fleet._executor.restore_shards(*split_by_flow(checkpoint, fleet._num_shards))
        return fleet
