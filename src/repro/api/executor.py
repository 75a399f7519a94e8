"""Pluggable shard execution for :class:`~repro.api.sharded.ShardedService`.

The sharded facade routes evidence; *where the shard services live* is this
module's concern:

* :class:`InlineExecutor` — every shard is a :class:`Zero07Service` in the
  calling process.  This is the original (and oracle) behavior: cheap,
  deterministic, fully introspectable.
* :class:`ProcessExecutor` — shards live in worker processes.  Bulk evidence
  travels as :mod:`repro.api.wire` binary batches over per-worker pipes, and
  control (tick / report / checkpoint / shutdown) rides the same FIFO pipe as
  small pickled frames, so a sync request implicitly drains everything queued
  before it — deterministic sequencing without extra barriers.

Transport discipline (``ProcessExecutor``): the coordinator's evidence intake
must stay a pure routing pass, so everything else is deferred onto two
pipeline threads:

* the **store lane** folds each submitted run into the coordinator's
  :class:`~repro.api.wire.EvidenceColumnStore` (the merged per-epoch tally
  behind parallel finalize) in submission order;
* the **wire lane** owns the encoder and every pipe's write end: it encodes
  batches, partitions vectorized runs into per-shard sub-runs, and performs
  the (GIL-releasing, possibly blocking) ``send_bytes`` calls, absorbing pipe
  backpressure without ever blocking the store lane or the coordinator.

``drain_store()`` is the read barrier for the column store; ``drain_wire()``
is the full barrier every sync command sits behind.  ``pause_wire()`` /
``resume_wire()`` let the facade keep encode work out of a measured finalize
window — a paused wire lane just queues; a sync barrier lifts the pause.

Worker discipline: workers drop their priority (``os.nice(19)``) — evidence
intake at the coordinator must never be starved by shard-side analysis,
mirroring the paper's "agents are negligible overhead, the analyzer does the
heavy lifting" split; they ignore ``SIGINT`` (the coordinator coordinates
shutdown) and exit on pipe EOF, so a dying coordinator — clean exit,
``SIGINT``, crash — always reaps the pool: no orphans.

Any transport failure (worker death, broken pipe, protocol error) surfaces as
:class:`ShardExecutorError` on the next executor call — never a hang, never a
partial result.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import traceback
import weakref
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.events import EpochTick, Evidence
from repro.api.wire import EvidenceColumnStore, WireDecoder, WireEncoder
from repro.core.arrays import LinkIndex


class ShardExecutorError(RuntimeError):
    """A shard executor lost a worker or hit a transport/protocol failure."""


#: frame opcodes (first byte of every pipe message).
_OP_BATCH = b"B"  # wire-encoded evidence run
_OP_EVENT = b"E"  # pickled (shard, event) — the per-event slow path
_OP_CONTROL = b"C"  # pickled control tuple; some expect a reply


class ShardExecutor:
    """The execution contract the sharded facade programs against.

    ``submit_runs`` / ``submit_vector_run`` / ``submit_event`` / ``tick`` are
    *asynchronous*: they enqueue work in shard order and return.
    ``evidence_for_epoch`` / ``checkpoint_shards`` / ``restore_shards`` are
    *synchronous*: they only return after every previously submitted command
    has been fully applied (per-shard FIFO ordering makes the barrier
    implicit).  The store/wire hooks are no-ops everywhere the work is
    already synchronous (the inline backend).
    """

    num_shards: int
    workers: int

    def submit_runs(
        self,
        epoch: int,
        stretch: Optional[List[Evidence]],
        sub_runs: Sequence[List[Evidence]],
        owned: bool,
    ) -> None:
        """Hand each shard its (possibly empty) slice of one bulk stretch.

        ``stretch`` is the same events in global order (the column-store
        feed); executors without a store may ignore it.
        """
        raise NotImplementedError

    def submit_vector_run(
        self,
        epoch: int,
        run: List[Evidence],
        shard_ids: np.ndarray,
        seqs: np.ndarray,
        owned: bool,
    ) -> None:
        """Hand over one pre-routed run (``shard_ids[i]`` owns ``run[i]``)."""
        raise NotImplementedError

    def submit_event(self, shard: int, event: Evidence) -> None:
        """Route one event to one shard (the per-event slow path)."""
        raise NotImplementedError

    def tick(self, epoch: int) -> None:
        """Deliver an :class:`EpochTick` to every shard."""
        raise NotImplementedError

    def evidence_for_epoch(self, epoch: int) -> List[Tuple[int, Any]]:
        """Every shard's buffered ``(seq, path)`` records for ``epoch``."""
        raise NotImplementedError

    def checkpoint_shards(self, bases: Optional[Sequence[Any]] = None) -> List[Any]:
        """Every shard's own :class:`~repro.api.checkpoint.Checkpoint`, in
        shard order — deltas against ``bases[shard]`` when ``bases`` is given."""
        raise NotImplementedError

    def restore_shards(self, payloads: Sequence[Dict[str, Any]], columns) -> None:
        """Rebuild every shard service from its checkpoint payload.

        ``columns`` is the sharded checkpoint's
        :class:`~repro.api.checkpoint.CheckpointColumns`; the shard payloads
        carry column markers into it.
        """
        raise NotImplementedError

    def shard_service(self, index: int):
        """The in-process shard service (inline backend only)."""
        raise NotImplementedError

    def fallback_events(self) -> int:
        """Events the shards replayed one at a time, summed; never a round trip."""
        raise NotImplementedError

    # -- store/wire pipeline hooks (async backends override) -----------
    def drain_store(self) -> None:
        """Barrier: the column store reflects every submitted run."""

    def mark_dirty(self, epoch: int) -> None:
        """Queue a column-store dirty mark behind earlier submissions."""

    def forget_epoch(self, epoch: int) -> None:
        """Queue a column-store release behind earlier submissions."""

    def pause_wire(self) -> None:
        """Hold back encode/send work (keeps a timed window contention-free)."""

    def resume_wire(self) -> None:
        """Undo :meth:`pause_wire`."""

    def close(self) -> None:
        """Tear down the executor (idempotent)."""
        raise NotImplementedError


class InlineExecutor(ShardExecutor):
    """All shards in the calling process — the original serial behavior."""

    def __init__(self, num_shards: int, service_config: Dict[str, Any]) -> None:
        from repro.api.service import Zero07Service

        self.num_shards = num_shards
        self.workers = 0
        self._config = dict(service_config)
        self._shards = [Zero07Service(**service_config) for _ in range(num_shards)]

    def submit_runs(self, epoch, stretch, sub_runs, owned):
        for shard, sub in enumerate(sub_runs):
            if sub:
                self._shards[shard].ingest_batch(sub, owned=owned)

    def submit_vector_run(self, epoch, run, shard_ids, seqs, owned):
        sub_runs: List[List[Evidence]] = [[] for _ in range(self.num_shards)]
        appends = [sub.append for sub in sub_runs]
        for event, shard in zip(run, shard_ids.tolist()):
            appends[shard](event)
        self.submit_runs(epoch, None, sub_runs, owned)

    def submit_event(self, shard, event):
        self._shards[shard].ingest(event)

    def tick(self, epoch):
        event = EpochTick(epoch)
        for shard in self._shards:
            shard.ingest(event)

    def evidence_for_epoch(self, epoch):
        merged: List[Tuple[int, Any]] = []
        for shard in self._shards:
            merged.extend(shard.evidence_for_epoch(epoch))
        return merged

    def checkpoint_shards(self, bases=None):
        if bases is None:
            bases = [None] * self.num_shards
        return [shard.checkpoint(base) for shard, base in zip(self._shards, bases)]

    def restore_shards(self, payloads, columns):
        from repro.api.checkpoint import Checkpoint
        from repro.api.service import Zero07Service

        self._shards = [
            Zero07Service.restore(Checkpoint(payload=payload, columns=columns))
            for payload in payloads
        ]

    def shard_service(self, index):
        return self._shards[index]

    def fallback_events(self):
        return sum(shard.stats.fallback_events for shard in self._shards)

    def close(self):
        pass


# ----------------------------------------------------------------------
# process backend
# ----------------------------------------------------------------------
class _Lane(threading.Thread):
    """One FIFO pipeline stage: a job queue owned by a dedicated thread.

    A job that raises latches the error on the executor; every producer and
    every barrier re-raises it as :class:`ShardExecutorError`, so a dead
    worker or a codec bug is always a clean failure, never a hang.  The
    ``gate`` lets the owner hold the lane idle without losing queued jobs.
    """

    def __init__(self, name: str, process, latch) -> None:
        super().__init__(name=name, daemon=True)
        self._handle = process
        self._latch = latch
        self.jobs: deque = deque()
        self.cond = threading.Condition()
        self.busy = False
        self.stopped = False
        self.gate = threading.Event()
        self.gate.set()

    def put(self, job) -> None:
        with self.cond:
            self.jobs.append(job)
            self.cond.notify_all()

    def run(self) -> None:
        while True:
            self.gate.wait()
            with self.cond:
                while not self.jobs and not self.stopped and self.gate.is_set():
                    self.cond.wait(0.5)
                if self.stopped and not self.jobs:
                    return
                if not self.jobs or not self.gate.is_set():
                    continue
                job = self.jobs.popleft()
                self.busy = True
            try:
                self._handle(job)
            except BaseException as exc:  # noqa: BLE001 — latch for callers
                self._latch(exc)
                with self.cond:
                    self.busy = False
                    self.cond.notify_all()
                return
            with self.cond:
                self.busy = False
                if not self.jobs:
                    self.cond.notify_all()

    def wait_drained(self, error_check) -> None:
        with self.cond:
            while self.jobs or self.busy:
                error_check()
                self.cond.wait(0.5)
        error_check()

    def stop(self) -> None:
        with self.cond:
            self.stopped = True
            self.gate.set()
            self.cond.notify_all()


def _worker_main(conn, shard_ids: List[int], service_config: Dict[str, Any]) -> None:
    """One worker process: host ``shard_ids``'s services, serve the pipe."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        os.nice(19)  # shard analysis must never starve coordinator intake
    except OSError:  # pragma: no cover - permission-restricted environments
        pass
    from repro.api.checkpoint import Checkpoint
    from repro.api.service import Zero07Service

    decoder = WireDecoder()
    services = {
        shard: Zero07Service(**service_config) for shard in shard_ids
    }
    error: Optional[str] = None
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            break  # coordinator is gone — exit, leaving no orphan
        op = data[:1]
        try:
            if op == _OP_BATCH:
                if error is None:
                    shard, epoch, events, seqs = decoder.decode(
                        memoryview(data)[1:]
                    )
                    services[shard].ingest_run(
                        epoch, events, owned=True, seqs=seqs
                    )
            elif op == _OP_EVENT:
                if error is None:
                    shard, event = pickle.loads(data[1:])
                    services[shard].ingest(event)
            elif op == _OP_CONTROL:
                command = pickle.loads(data[1:])
                name = command[0]
                if name == "tick":
                    if error is None:
                        tick = EpochTick(command[1])
                        for service in services.values():
                            service.ingest(tick)
                    continue
                # sync commands always reply — a latched error is the reply.
                if error is not None:
                    conn.send(("error", error))
                    continue
                if name == "ping":
                    conn.send(("ok", sorted(services)))
                elif name == "evidence":
                    conn.send(
                        (
                            "ok",
                            {
                                shard: (
                                    service.evidence_for_epoch(command[1]),
                                    service.stats.fallback_events,
                                )
                                for shard, service in services.items()
                            },
                        )
                    )
                elif name == "checkpoint":
                    bases = command[1]
                    conn.send(
                        (
                            "ok",
                            {
                                shard: service.checkpoint(
                                    None if bases is None else bases[shard]
                                )
                                for shard, service in services.items()
                            },
                        )
                    )
                elif name == "restore":
                    services = {
                        shard: Zero07Service.restore(
                            Checkpoint(payload=payload, columns=command[2])
                        )
                        for shard, payload in command[1].items()
                    }
                    decoder = WireDecoder()
                    conn.send(("ok", None))
                elif name == "stats":
                    conn.send(
                        (
                            "ok",
                            {
                                shard: service.stats.as_dict()
                                for shard, service in services.items()
                            },
                        )
                    )
                elif name == "shutdown":
                    conn.send(("ok", None))
                    break
                else:
                    conn.send(("error", f"unknown command {name!r}"))
        except BaseException:  # noqa: BLE001 — latch, report on next sync
            error = traceback.format_exc()
            if op == _OP_CONTROL:
                try:
                    conn.send(("error", error))
                except (BrokenPipeError, OSError):
                    break
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


def _terminate_processes(processes) -> None:
    """Best-effort kill used as a GC/exit backstop (idempotent)."""
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=1.0)
        if process.is_alive():  # pragma: no cover - stuck in uninterruptible IO
            process.kill()


class ProcessExecutor(ShardExecutor):
    """Shards hosted by ``workers`` OS processes (``shard % workers`` each).

    The executor feeds the coordinator-side :class:`EvidenceColumnStore` (the
    facade hands its store in and reads it back behind :meth:`drain_store`)
    and owns the wire encoder (used only by the wire-lane thread; the restore
    protocol resets both ends' interning tables through the same FIFO, so the
    per-stream watermarks never skew).
    """

    def __init__(
        self,
        num_shards: int,
        service_config: Dict[str, Any],
        workers: Optional[int] = None,
        link_index: Optional[LinkIndex] = None,
        store: Optional[EvidenceColumnStore] = None,
    ) -> None:
        import multiprocessing

        if workers is None:
            workers = num_shards
        if workers < 1:
            raise ValueError("workers must be >= 1")
        workers = min(workers, num_shards)
        self.num_shards = num_shards
        self.workers = workers
        self._store = store
        self._closed = False
        self._error: Optional[BaseException] = None
        self._service_config = dict(service_config)
        self._link_index = link_index
        #: shard -> its ``fallback_events`` as of the latest reply that
        #: carried it (evidence gather, checkpoint, stats, restore).
        self._fallbacks: Dict[int, int] = {}
        self._spawn()

    def _spawn(self) -> None:
        """Fork the worker fleet and start the pipeline lanes."""
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context("spawn")

        self._conns = []
        self._processes = []
        for worker in range(self.workers):
            parent_conn, child_conn = context.Pipe(duplex=True)
            shard_ids = [
                s for s in range(self.num_shards) if s % self.workers == worker
            ]
            process = context.Process(
                target=_worker_main,
                args=(child_conn, shard_ids, dict(self._service_config)),
                name=f"repro-shard-worker-{worker}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._processes.append(process)
        self._encoder = WireEncoder(
            streams=self.workers, link_index=self._link_index
        )
        # a respawn must keep interning into the same table the facade's
        # merge path shares, even when the executor was built without one.
        self._link_index = self._encoder.link_index
        # lanes start only after every fork: forking a process that already
        # runs threads is where orphaned locks come from.
        self._wire = _Lane("repro-wire-lane", self._process_wire_job, self._latch)
        self._lane = _Lane("repro-store-lane", self._process_store_job, self._latch)
        self._wire.start()
        self._lane.start()
        self._finalizer = weakref.finalize(
            self, _terminate_processes, list(self._processes)
        )

    def _pipeline_dead(self) -> bool:
        """Whether the transport can no longer deliver work."""
        return self._error is not None or any(
            not process.is_alive() for process in self._processes
        )

    def _respawn(self) -> None:
        """Tear down a dead pipeline and fork a fresh worker fleet.

        Used by :meth:`restore_shards`: a restore overwrites every shard's
        state anyway, so nothing of the dead fleet is worth salvaging — the
        lanes (which exit after latching an error), the pipes and the worker
        processes are all replaced and the error latch is cleared.
        """
        self._lane.stop()
        self._wire.stop()
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        _terminate_processes(self._processes)
        self._finalizer.detach()
        self._error = None
        self._spawn()

    # ------------------------------------------------------------------
    def _worker_of(self, shard: int) -> int:
        return shard % self.workers

    def _latch(self, exc: BaseException) -> None:
        if self._error is None:
            self._error = exc
        for lane in (self._lane, self._wire):
            with lane.cond:
                lane.cond.notify_all()

    def _check_error(self) -> None:
        if self._error is not None:
            raise ShardExecutorError(
                f"shard transport failed: {self._error!r}"
            ) from self._error

    def _check_open(self) -> None:
        if self._closed:
            raise ShardExecutorError("executor is closed")
        self._check_error()

    # -- store lane ----------------------------------------------------
    def _process_store_job(self, job) -> None:
        kind = job[0]
        if kind == "run":
            _, epoch, stretch, sub_runs, seqs = job
            if self._store is not None and stretch is not None:
                self._store.append_run(epoch, stretch, seqs=seqs)
            self._wire.put(("encode", epoch, sub_runs))
        elif kind == "vrun":
            _, epoch, run, shard_ids, seqs = job
            if self._store is not None:
                self._store.append_run(epoch, run, seqs=seqs)
            self._wire.put(("partition", epoch, run, shard_ids))
        elif kind == "dirty":
            if self._store is not None:
                self._store.mark_dirty(job[1])
        elif kind == "forget":
            if self._store is not None:
                self._store.pop(job[1])
        else:  # passthrough frames/restores ride the same FIFO
            self._wire.put(job)

    # -- wire lane -----------------------------------------------------
    def _send_frame(self, worker: Optional[int], frame: bytes) -> None:
        if worker is None:
            for conn in self._conns:
                conn.send_bytes(frame)
        else:
            self._conns[worker].send_bytes(frame)

    def _encode_sub_runs(self, epoch: int, sub_runs) -> List[Tuple[int, bytes]]:
        frames = []
        for shard, sub in enumerate(sub_runs):
            if sub:
                worker = self._worker_of(shard)
                frames.append(
                    (
                        worker,
                        _OP_BATCH
                        + self._encoder.encode_run(worker, shard, epoch, sub),
                    )
                )
        return frames

    def _process_wire_job(self, job) -> None:
        kind = job[0]
        if kind == "encode":
            _, epoch, sub_runs = job
            for worker, frame in self._encode_sub_runs(epoch, sub_runs):
                self._send_frame(worker, frame)
        elif kind == "partition":
            _, epoch, run, shard_ids = job
            sub_runs: List[List[Evidence]] = [[] for _ in range(self.num_shards)]
            appends = [sub.append for sub in sub_runs]
            for event, shard in zip(run, shard_ids.tolist()):
                appends[shard](event)
            for worker, frame in self._encode_sub_runs(epoch, sub_runs):
                self._send_frame(worker, frame)
        elif kind == "frame":
            _, worker, frame = job
            self._send_frame(worker, frame)
        elif kind == "restore":
            # reset the encoder with the decoders, through the same FIFO, so
            # the per-stream interning watermarks stay aligned.
            self._encoder = WireEncoder(
                streams=self.workers, link_index=self._encoder.link_index
            )
            for worker, frame in job[1]:
                self._send_frame(worker, frame)

    # -- pipeline barriers ---------------------------------------------
    def drain_store(self) -> None:
        self._check_error()
        self._lane.wait_drained(self._check_error)

    def drain_wire(self) -> None:
        """Full barrier: every queued frame has been written to its pipe.

        Lifts any :meth:`pause_wire` — a sync command's correctness depends
        on the flush; the pause is only a scheduling hint.
        """
        self.resume_wire()
        self._check_error()
        self._lane.wait_drained(self._check_error)
        self._wire.wait_drained(self._check_error)

    def pause_wire(self) -> None:
        self._wire.gate.clear()
        with self._wire.cond:
            self._wire.cond.notify_all()

    def resume_wire(self) -> None:
        self._wire.gate.set()
        with self._wire.cond:
            self._wire.cond.notify_all()

    def mark_dirty(self, epoch: int) -> None:
        self._check_open()
        self._lane.put(("dirty", epoch))

    def forget_epoch(self, epoch: int) -> None:
        self._check_open()
        self._lane.put(("forget", epoch))

    # -- submissions ----------------------------------------------------
    def submit_runs(self, epoch, stretch, sub_runs, owned):
        self._check_open()
        if owned:
            self._lane.put(("run", epoch, stretch, sub_runs, None))
            return
        # the caller may mutate the events after we return: capture them now
        # (columns + encoded frames), then queue only the immutable bytes.
        self.drain_wire()
        if self._store is not None and stretch is not None:
            self._store.append_run(epoch, stretch)
        for worker, frame in self._encode_sub_runs(epoch, sub_runs):
            self._lane.put(("frame", worker, frame))

    def submit_vector_run(self, epoch, run, shard_ids, seqs, owned):
        self._check_open()
        if owned:
            self._lane.put(("vrun", epoch, run, shard_ids, seqs))
            return
        self.drain_wire()
        if self._store is not None:
            self._store.append_run(epoch, run, seqs=seqs)
        self._process_wire_job(("partition", epoch, list(run), shard_ids))

    def submit_event(self, shard, event):
        self._check_open()
        frame = _OP_EVENT + pickle.dumps(
            (shard, event), protocol=pickle.HIGHEST_PROTOCOL
        )
        self._lane.put(("frame", self._worker_of(shard), frame))

    def tick(self, epoch):
        self._check_open()
        frame = _OP_CONTROL + pickle.dumps(
            ("tick", epoch), protocol=pickle.HIGHEST_PROTOCOL
        )
        self._lane.put(("frame", None, frame))

    # -- sync commands ---------------------------------------------------
    def _sync(self, command: Tuple) -> List[Any]:
        """Broadcast a control request; gather one reply per worker.

        The request rides the pipeline behind everything submitted earlier,
        and FIFO pipes make each worker's reply an implicit barrier over
        everything sent to that worker before it.
        """
        self._check_open()
        frame = _OP_CONTROL + pickle.dumps(command, protocol=pickle.HIGHEST_PROTOCOL)
        self._lane.put(("frame", None, frame))
        self.drain_wire()
        replies = []
        for worker in range(self.workers):
            try:
                status, payload = self._conns[worker].recv()
            except (EOFError, OSError) as exc:
                raise ShardExecutorError(
                    f"shard worker {worker} died before replying to "
                    f"{command[0]!r}"
                ) from exc
            if status != "ok":
                raise ShardExecutorError(
                    f"shard worker {worker} failed during {command[0]!r}:\n"
                    f"{payload}"
                )
            replies.append(payload)
        return replies

    def evidence_for_epoch(self, epoch):
        merged: List[Tuple[int, Any]] = []
        for by_shard in self._sync(("evidence", epoch)):
            for shard, (records, fallbacks) in by_shard.items():
                merged.extend(records)
                self._fallbacks[shard] = fallbacks
        return merged

    def checkpoint_shards(self, bases=None):
        checkpoints: Dict[int, Any] = {}
        for by_shard in self._sync(("checkpoint", bases)):
            checkpoints.update(by_shard)
        for shard, checkpoint in checkpoints.items():
            self._fallbacks[shard] = checkpoint.payload["stats"]["fallback_events"]
        return [checkpoints[shard] for shard in range(self.num_shards)]

    def restore_shards(self, payloads, columns):
        if self._closed:
            raise ShardExecutorError("executor is closed")
        if self._pipeline_dead():
            # a restore replaces every shard's state, so a fleet that already
            # failed (latched transport error, killed worker) is respawned
            # instead of latching the restore into the dead pipeline.
            self._respawn()
        frames = []
        for worker in range(self.workers):
            by_shard = {
                shard: payloads[shard]
                for shard in range(self.num_shards)
                if self._worker_of(shard) == worker
            }
            frames.append(
                (
                    worker,
                    _OP_CONTROL
                    + pickle.dumps(
                        ("restore", by_shard, columns),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    ),
                )
            )
        self._lane.put(("restore", frames))
        self._fallbacks = {
            shard: payload.get("stats", {}).get("fallback_events", 0)
            for shard, payload in enumerate(payloads)
        }
        self.drain_wire()
        for worker in range(self.workers):
            try:
                status, payload = self._conns[worker].recv()
            except (EOFError, OSError) as exc:
                raise ShardExecutorError(
                    f"shard worker {worker} died during restore"
                ) from exc
            if status != "ok":
                raise ShardExecutorError(
                    f"shard worker {worker} failed during restore:\n{payload}"
                )

    def ping(self) -> None:
        """Round-trip every worker (tests use this as a liveness barrier)."""
        self._sync(("ping",))

    def stats(self) -> List[Dict[str, Any]]:
        """Per-shard service stats counters, in shard order."""
        merged: Dict[int, Dict[str, Any]] = {}
        for by_shard in self._sync(("stats",)):
            merged.update(by_shard)
        for shard, counters in merged.items():
            self._fallbacks[shard] = counters["fallback_events"]
        return [merged[shard] for shard in range(self.num_shards)]

    def fallback_events(self):
        return sum(self._fallbacks.values())

    def shard_service(self, index):
        raise ShardExecutorError(
            "shard services live in worker processes under the process "
            "backend — use merged reports, checkpoint_shards() or stats()"
        )

    def close(self):
        if self._closed:
            return
        self._closed = True
        shutdown = _OP_CONTROL + pickle.dumps(("shutdown",))
        try:
            self._lane.put(("frame", None, shutdown))
            self.drain_wire()
        except ShardExecutorError:
            pass
        for conn, process in zip(self._conns, self._processes):
            try:
                if conn.poll(5.0):
                    conn.recv()
            except (EOFError, OSError):
                pass
        self._lane.stop()
        self._wire.stop()
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for process in self._processes:
            process.join(timeout=5.0)
        _terminate_processes(self._processes)
        self._finalizer.detach()

    @property
    def encoder(self) -> WireEncoder:
        """The executor's wire encoder (shares the facade's link index)."""
        return self._encoder
