"""``steady_ingest`` and ``sharded_process``: one stream, two service shapes.

Both workloads push the *same* generated stream (``medium`` fabric, skewed
profile, no timeline) one epoch at a time — ``ingest_batch(epoch_events,
owned=True)`` then ``ingest(EpochTick)`` — through a plain
``Zero07Service(engine="arrays")`` or a ``ShardedService(num_shards=2,
backend="process", engine="arrays")``.  The ratio of their
``sustained_events_per_s`` is the honest scaling ratio.

The measuring window is spent in rounds of two passes, so that every
metric's repetitions are spread over the whole window:

* a **throughput pass** (closed loop, fresh service and fresh event objects):
  ``sustained_events_per_s``, ``finalize_p50_s``/``p90``,
  ``cpu_s_per_mevent``.  The clock runs from the first ``ingest_batch`` to
  the last finalized report in hand *and* every background lane and worker
  drained — work deferred past ``ingest_batch``'s return is inside it.
* a **mid-epoch pass** (fresh service, the first half of epoch 0 in four
  slices): a cold and an immediately repeated (cached) ``report(epoch)``
  after each slice, a base checkpoint after the first and a full and a delta
  save/restore cycle after the fourth; the first round compares both
  restored services' reports with the live one.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ruler import ckpt, harness, layers
from ruler.harness import Run, Stream

QUERY_PARTS = 8


class PlainAdapter:
    """The unsharded service: nothing to spawn, drain or close."""

    #: all the pass's CPU is this process's, so it can be cut into segments.
    in_process = True
    #: the repeated query is a dictionary lookup of a few microseconds: it is
    #: timed as the mean of this many back-to-back repeats.
    cached_repeats = 64

    ingest_span = "service.ingest_batch"
    tick_span = "service.tick"
    cold_span = "service.report_cold"
    cached_span = "service.report_cached"

    def make(self, tracer, sinks=()):
        from repro.api import Zero07Service

        return Zero07Service(engine="arrays", sinks=list(sinks))

    def drain_lanes(self, service, tracer) -> None:
        pass

    def settle(self, service, tracer) -> Optional[list]:
        return None

    def close(self, service, tracer) -> None:
        pass

    def restore(self, checkpoint):
        from repro.api import Zero07Service

        return Zero07Service.restore(checkpoint)

    def stats(self, service) -> Dict[str, int]:
        return service.stats.as_dict()


class ShardedAdapter:
    """Shards on worker processes behind the routing facade."""

    #: the workers' CPU is only known once they are reaped, per pass.
    in_process = False
    #: the repeated query costs milliseconds here (no cached path): once.
    cached_repeats = 1

    ingest_span = "sharded.admit"
    tick_span = "sharded.tick"
    cold_span = "sharded.report_cold"
    cached_span = "sharded.report_cached"

    def make(self, tracer, sinks=()):
        from repro.api import ShardedService

        with tracer.span("executor.spawn"):
            return ShardedService(
                num_shards=2, backend="process", engine="arrays", sinks=list(sinks)
            )

    def drain_lanes(self, service, tracer) -> None:
        """Traced passes only: separate lane waiting from the tick itself."""
        with tracer.span("executor.drain_wait"):
            service.executor.drain_store()
            service.executor.drain_wire()

    def settle(self, service, tracer) -> Optional[list]:
        """End-of-pass barrier: every worker has folded everything sent.

        ``executor.stats()`` is a sync round trip behind all queued frames;
        without it the workers' backlog would spill out of the clock.
        """
        with tracer.span("executor.worker_drain"):
            return service.executor.stats()

    def close(self, service, tracer) -> None:
        with tracer.span("executor.close"):
            service.close()

    def restore(self, checkpoint):
        from repro.api import ShardedService

        return ShardedService.restore(checkpoint, backend="process")

    def stats(self, service) -> Dict[str, int]:
        return {}


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
def throughput_pass(
    run: Run,
    adapter,
    stream: Stream,
    oracle,
    record: bool,
    traced: bool,
    epochs: Optional[int] = None,
) -> Dict[str, float]:
    """One closed-loop pass over the stream (or its first ``epochs``) on a
    fresh service."""
    from repro.api import CallbackSink, EpochTick

    tracer = run.tracer
    fresh = stream.fresh(epochs)
    produced: Dict[int, object] = {}
    sink = CallbackSink(lambda report: produced.__setitem__(report.epoch, report))
    harness.settle_gc()
    rss_before = harness.current_rss_mb()
    cpu_self0, cpu_child0 = harness.cpu_self(), harness.cpu_children()
    service = adapter.make(tracer, [sink])
    finalize: List[float] = []
    #: the pass's clock cut at every finalized report, and the settle at
    #: the end: contiguous segments that add up to ``wall`` (and this
    #: process's CPU over the same segments).
    segments: List[float] = []
    cpu_segments: List[float] = []
    failure: Optional[BaseException] = None
    started = time.perf_counter()
    try:
        with tracer.span("pass"):
            mark, cpu_mark = started, time.process_time()
            for epoch, events in enumerate(fresh):
                tracer.epoch = epoch
                with tracer.span(adapter.ingest_span):
                    service.ingest_batch(events, owned=True)
                if traced:
                    adapter.drain_lanes(service, tracer)
                tick_at = time.perf_counter()
                with tracer.span(adapter.tick_span):
                    service.ingest(EpochTick(epoch))
                now, cpu_now = time.perf_counter(), time.process_time()
                finalize.append(now - tick_at)
                segments.append(now - mark)
                cpu_segments.append(cpu_now - cpu_mark)
                mark, cpu_mark = now, cpu_now
            tracer.epoch = None
            shard_stats = adapter.settle(service, tracer)
        wall = time.perf_counter() - started
        segments.append(wall - (mark - started))
        cpu_segments.append(time.process_time() - cpu_mark)
        rss_after = harness.current_rss_mb()
        cpu_self_pass = harness.cpu_self() - cpu_self0
        plain_stats = adapter.stats(service)
    except Exception as exc:  # the pass's remaining operations fail
        failure = exc
    finally:
        try:
            adapter.close(service, tracer)
        except Exception as exc:
            failure = failure or exc
    cpu_total = (
        harness.cpu_self() - cpu_self0 + harness.cpu_children() - cpu_child0
    )
    if not record and failure is None:
        return {}
    for epoch in range(len(fresh)):
        report = produced.get(epoch)
        key = harness.report_key(report) if report is not None else None
        what = f"finalized epoch {epoch}"
        if failure is not None:
            what += f" ({failure!r})"
        run.check(key if failure is None else None, oracle[epoch], what)
    if failure is not None:
        return {}
    run.sample("pass_wall_s", wall)
    run.extend("pass_segment_s", segments)
    if adapter.in_process:
        run.extend("cpu_segment_s", cpu_segments)
    run.sample("cpu_s", cpu_total)
    run.sample("cpu_events", stream.events_total)
    run.extend("finalize_s", finalize)
    return {
        "wall": wall,
        "rss_growth_mb": rss_after - rss_before,
        "coordinator_cpu_s": cpu_self_pass,
        "worker_cpu_s": cpu_total - cpu_self_pass,
        "shard_stats": shard_stats,
        "plain_stats": plain_stats,
    }


def warm_up(run: Run, adapter, stream: Stream, oracle) -> None:
    """One discarded epoch: first-call costs (lazy imports, allocator arenas,
    numpy dispatch caches) are paid before the first timed pass.  Every timed
    pass builds its own service, so one epoch touches every code path."""
    throughput_pass(
        run, adapter, stream, oracle, record=False, traced=False, epochs=1
    )


def mid_epoch_pass(run: Run, adapter, stream: Stream, prefix, verify: bool) -> Dict[str, float]:
    """The first half of epoch 0 on a fresh service, in four slices: a cold
    and an immediately repeated ``report(epoch)`` after each, a base
    checkpoint after the first and a full + delta save/restore cycle after
    the fourth (``verify``: compare both restored services with the live
    one).  Small on purpose: a round has to stay short so that every metric
    is repeated many times in one window."""
    tracer = run.tracer
    null = harness.Tracer()
    epoch = 0
    cuts = mid_epoch_cuts(stream)
    events = stream.fresh(1, cuts[-1])[epoch]
    harness.settle_gc()
    service = adapter.make(tracer)
    cold: List[float] = []
    cached: List[float] = []
    keys: List[Tuple[int, object, object]] = []
    before = run.attempted
    failure: Optional[BaseException] = None
    info: Dict[str, float] = {}
    try:
        with tracer.span("pass"):
            tracer.epoch = epoch
            base = None
            lo = 0
            for hi in cuts:
                with tracer.span(adapter.ingest_span):
                    service.ingest_batch(events[lo:hi], owned=True)
                lo = hi
                t0 = time.perf_counter()
                with tracer.span(adapter.cold_span):
                    first = service.report(epoch)
                t1 = time.perf_counter()
                with tracer.span(adapter.cached_span):
                    for _ in range(adapter.cached_repeats):
                        again = service.report(epoch)
                t2 = time.perf_counter()
                cold.append(t1 - t0)
                cached.append((t2 - t1) / adapter.cached_repeats)
                keys.append((hi, harness.report_key(first), harness.report_key(again)))
                # drop the reports here, not inside the next query's clock
                first = again = None
                if base is None:
                    base = service.checkpoint()
            tracer.epoch = None
            stats = adapter.stats(service)
            if stats:
                info["materializations_per_query"] = stats["reports_materialized"] / float(
                    len(cold) * (1 + adapter.cached_repeats)
                )
            harness.settle_gc()
            info.update(
                ckpt.full_and_delta_cycle(
                    run,
                    service,
                    base,
                    epoch,
                    keys[-1][1],
                    adapter.restore,
                    lambda restored: adapter.close(restored, null),
                    cuts[-1],
                    cuts[-1] - cuts[0],
                    verify=verify,
                )
            )
    except Exception as exc:
        failure = exc
    finally:
        try:
            adapter.close(service, null)
        except Exception as exc:
            failure = failure or exc
    for cut, first, again in keys:
        run.check(first, prefix[(epoch, cut)], f"cold report e{epoch}@{cut}")
        run.check(again, prefix[(epoch, cut)], f"cached report e{epoch}@{cut}")
    planned = 2 * len(cuts) + (ckpt.CHECKS_PER_CYCLE if verify else 0)
    for _ in range(planned - (run.attempted - before)):
        run.op(False, f"mid-epoch step not reached ({failure!r})")
    if failure is None:
        run.extend("report_cold_s", cold)
        run.extend("report_cached_s", cached)
    return info


def mid_epoch_cuts(stream: Stream) -> List[int]:
    """The first four eighths of epoch 0."""
    return harness.equal_cuts(stream, QUERY_PARTS)[0][: QUERY_PARTS // 2]


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run_workload(run: Run) -> None:
    adapter = PlainAdapter() if run.workload == "steady_ingest" else ShardedAdapter()
    null = harness.Tracer()

    def one_setup():
        stream = harness.make_stream(run.workload, run.sizing, run.seed, run.lap)
        oracle = harness.final_oracle(stream, run.lap)
        stream.fresh()  # one pass's fresh copy
        run.lap()
        adapter.close(adapter.make(null), null)  # one pass's spawn + close
        return stream, oracle

    stream, oracle = harness.time_setups(run, one_setup)
    rss_after_setup = harness.current_rss_mb()
    epochs = len(stream.epochs)
    planned_min = epochs + QUERY_PARTS + ckpt.CHECKS_PER_CYCLE
    run.write_progress(planned_min)
    run.start_window()
    if run.trace:
        _traced(run, adapter, stream, oracle, rss_after_setup)
    else:
        _end_to_end(run, adapter, stream, oracle, planned_min)


def _end_to_end(run: Run, adapter, stream: Stream, oracle, planned_min: int) -> None:
    """Rounds of (throughput pass, mid-epoch pass) until the window closes,
    so every metric's repetitions are spread over the whole window and a
    slow phase of the host cannot swallow all of one metric's."""
    if not run.quick:
        warm_up(run, adapter, stream, oracle)
    prefix = harness.prefix_oracle(stream, [mid_epoch_cuts(stream)])
    rounds = 0

    def one_round() -> None:
        nonlocal rounds
        throughput_pass(run, adapter, stream, oracle, record=True, traced=False)
        mid_epoch_pass(run, adapter, stream, prefix, verify=rounds == 0)
        rounds += 1
        run.write_progress(planned_min)

    run.repeat_until(1.0, one_round)

    run.set_end_to_end(stream.events_total)
    run.set(
        "peak_rss_mb",
        harness.peak_rss_self_mb() + harness.peak_rss_children_mb(),
    )


def _traced(run: Run, adapter, stream: Stream, oracle, rss_after_setup: float) -> None:
    tracer = run.tracer
    if not run.quick:
        warm_up(run, adapter, stream, oracle)
    log = harness.alternate_passes(
        run,
        0.4,
        lambda traced: throughput_pass(
            run, adapter, stream, oracle, record=True, traced=traced
        ),
    )
    per_pass, last = log.self_times, log.last

    events = stream.events_total
    ingest_s = harness.median_self_time(per_pass, adapter.ingest_span)
    run.set(f"{adapter.ingest_span}_s", ingest_s, len(per_pass))
    run.set(f"{adapter.ingest_span}_events_per_s", events / ingest_s if ingest_s else 0.0)
    for span_name in (adapter.tick_span, "executor.drain_wait", "executor.worker_drain"):
        if any(span_name in times for times in per_pass):
            run.set(
                f"{span_name}_s",
                harness.median_self_time(per_pass, span_name),
                len(per_pass),
            )
    run.set_trace_shares(log.untraced, log.traced, log.coverage)
    if last:
        run.set("state.rss_growth_mb", last["rss_growth_mb"])
        for counter in ("duplicate_events", "out_of_order_events", "late_events"):
            if counter in last["plain_stats"]:
                run.set(f"service.{counter}", last["plain_stats"][counter])
        if last["shard_stats"]:
            ingested = [shard["paths_ingested"] for shard in last["shard_stats"]]
            mean = sum(ingested) / len(ingested)
            run.set("sharded.shard_skew", max(ingested) / mean if mean else 0.0)
            run.set("sharded.coordinator_cpu_s", last["coordinator_cpu_s"])
            run.set("executor.worker_cpu_s", last["worker_cpu_s"])
    run.set("state.rss_after_setup_mb", rss_after_setup)

    # spawn/close happen outside the pass span; report them per pass
    counts = tracer.counts()
    totals = tracer.self_times()
    for span_name in ("executor.spawn", "executor.close"):
        if counts.get(span_name):
            run.set(f"{span_name}_s", totals[span_name] / counts[span_name], counts[span_name])

    prefix = harness.prefix_oracle(stream, [mid_epoch_cuts(stream)])
    tracer.pass_id += 1
    info = mid_epoch_pass(run, adapter, stream, prefix, verify=True)
    times = tracer.self_times(tracer.pass_id)
    run.set(f"{adapter.cold_span}_s", times.get(adapter.cold_span, 0.0))
    run.set(f"{adapter.cached_span}_s", times.get(adapter.cached_span, 0.0))
    if "materializations_per_query" in info:
        run.set("service.materializations_per_query", info["materializations_per_query"])
    ckpt.set_layer_metrics(run, times, info)

    run.set_tails()
    tracer.pass_id += 1
    layers.core_replay(run, stream)
    if run.workload == "sharded_process":
        tracer.pass_id += 1
        layers.wire_replay(run, layers.shard_sub_runs(stream, 2), stream)
    run.set("loadgen.generate_events_per_s", events / stream.generate_seconds)
    run.set("loadgen.path_share", layers.path_share(stream))
