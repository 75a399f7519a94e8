"""``operator_trickle``: the service layer used the other way round.

Reads beside writes on a ``large`` fabric (uniform profile, half the stream
count bumps, ``flap`` timeline), through a plain
``Zero07Service(engine="arrays")``.  Per epoch of ``N`` events:

* the first quarter arrives one event at a time through ``ingest()``;
* the rest arrives in 512-event ``ingest_batch(owned=False)`` chunks — one
  chunk pair in every 16 is delivered in swapped order and one chunk in
  every 32 is delivered twice (which pairs: drawn from ``--seed``);
* a cold + immediately repeated ``report(epoch)`` pair after every 2 048
  events (16 pairs per epoch);
* in the flap epochs, a base checkpoint at the ¼ mark and a full and a delta
  save/restore cycle at the ¾ mark; each restored service's report is
  compared with the live one.

Swaps stay inside one 2 048-event query interval, so at every query the
delivered set is a clean prefix and the reference report comes from a clean
in-order feed.  Bulk fold is a minor share here: view maintenance, report
materialization, defensive copies, the out-of-order/duplicate path, the
``bump_rows`` update path and ``api.checkpoint`` dominate — so an ingest
speed-up bought by deferring work into ``report()``/tick shows up as a cost.

The sustained clock covers deliveries, queries and ticks; the checkpoint
cycles (timed by their own metrics, and followed by the ruler's own
restored-vs-live comparison) are subtracted from it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import numpy as np

from ruler import ckpt, harness, layers
from ruler.harness import Run, Stream

CHUNK = 512
QUERY_EVERY = 2048
CHUNKS_PER_QUERY = QUERY_EVERY // CHUNK
#: the repeated query is a dictionary lookup of a few microseconds: it is
#: timed as the mean of this many back-to-back repeats.
CACHED_REPEATS = 64


class Schedule:
    """One epoch's delivery plan (the same for every pass of a run)."""

    def __init__(self, events: list, rng: np.random.Generator) -> None:
        total = len(events)
        if total % (4 * QUERY_EVERY):
            raise ValueError("epoch size must be a multiple of 4 x 2048 events")
        self.events = events
        self.parts = total // QUERY_EVERY
        self.quarter_parts = self.parts // 4
        #: per query interval, the deliveries that precede its report pair:
        #: ``("events", lo, hi)`` or ``("batch", lo, hi)``.
        self.intervals: List[List[Tuple[str, int, int]]] = []
        self.expected_duplicates = 0
        self.expected_out_of_order = 0
        # a swapped pair must not straddle a query boundary: first chunk of
        # the pair sits at position 0 or 1 of its 4-chunk interval; the
        # duplicated chunk sits at position 3, so it is never part of a pair.
        # The seed picks the pair's position inside its interval and which
        # chunk is duplicated, not the interval: how far into the epoch a
        # swap lands sets the cost of the rebuild it forces, and that must
        # not move the report percentiles from seed to seed.
        swap_phase = CHUNKS_PER_QUERY + int(rng.integers(0, 2))
        dup_phase = CHUNKS_PER_QUERY * int(rng.integers(0, 8)) + 3
        for part in range(self.parts):
            lo = part * QUERY_EVERY
            if part < self.quarter_parts:
                self.intervals.append([("events", lo, lo + QUERY_EVERY)])
                continue
            first_chunk = (part - self.quarter_parts) * CHUNKS_PER_QUERY
            bounds = [
                (lo + i * CHUNK, lo + (i + 1) * CHUNK) for i in range(CHUNKS_PER_QUERY)
            ]
            order = list(range(CHUNKS_PER_QUERY))
            for i in range(CHUNKS_PER_QUERY - 1):
                if (first_chunk + i) % 16 == swap_phase:
                    order[i], order[i + 1] = order[i + 1], order[i]
                    # the late chunk's path events arrive below the watermark
                    self.expected_out_of_order += _path_count(
                        events[bounds[i][0] : bounds[i][1]]
                    )
            steps: List[Tuple[str, int, int]] = []
            for i in order:
                steps.append(("batch",) + bounds[i])
                if (first_chunk + i) % 32 == dup_phase:
                    steps.append(("batch",) + bounds[i])
                    self.expected_duplicates += CHUNK
            self.intervals.append(steps)


class _Aside:
    """Time spent on the ruler's own checks (and on checkpoint cycles, which
    have their own metrics) inside a pass, kept out of the sustained clock."""

    def __init__(self, tracer, span_name: str) -> None:
        self.tracer = tracer
        self.span_name = span_name
        self.wall = 0.0
        self.cpu = 0.0

    @contextmanager
    def measured(self):
        with self.tracer.span(self.span_name):
            cpu0, wall0 = harness.cpu_self(), time.perf_counter()
            try:
                yield
            finally:
                self.wall += time.perf_counter() - wall0
                self.cpu += harness.cpu_self() - cpu0


def _path_count(events: list) -> int:
    from repro.api import PathEvidence

    return sum(1 for event in events if type(event) is PathEvidence)


def checkpoint_epochs(num_epochs: int) -> Tuple[int, ...]:
    """The epochs with a checkpoint cycle: the flap window (epochs 1–2)."""
    return tuple(epoch for epoch in (1, 2) if epoch < num_epochs) or (0,)


# ----------------------------------------------------------------------
def trickle_pass(
    run: Run,
    stream: Stream,
    schedules: List[Schedule],
    oracle,
    prefix,
    record: bool,
    epochs: Optional[int] = None,
) -> Dict[str, float]:
    """One pass: deliveries, report pairs, checkpoint cycles, ticks."""
    from repro.api import CallbackSink, EpochTick, Zero07Service

    tracer = run.tracer
    num_epochs = len(schedules) if epochs is None else epochs
    cycle_epochs = checkpoint_epochs(len(schedules))
    produced: Dict[int, object] = {}
    sink = CallbackSink(lambda report: produced.__setitem__(report.epoch, report))
    harness.settle_gc()
    rss_before = harness.current_rss_mb()
    service = Zero07Service(engine="arrays", sinks=[sink])
    ingest = service.ingest
    cold: List[float] = []
    cached: List[float] = []
    finalize: List[float] = []
    #: the sustained clock cut after every report pair and every tick
    #: (contiguous but for the asides): the segments add up to ``wall``.
    segments: List[float] = []
    cpu_segments: List[float] = []
    sizes: Dict[str, float] = {}
    query_keys: List[Tuple[int, int, object, object]] = []
    cycles_done = 0
    live = None
    verify = _Aside(tracer, "ruler.verify")
    cycle = _Aside(tracer, "ruler.checkpoint_cycle")
    failure: Optional[BaseException] = None
    cpu0 = harness.cpu_self()
    started = time.perf_counter()
    try:
        with tracer.span("pass"):
            for epoch in range(num_epochs):
                tracer.epoch = epoch
                schedule = schedules[epoch]
                events = schedule.events
                base = None
                for part, steps in enumerate(schedule.intervals):
                    interval_at, cpu_at = time.perf_counter(), time.process_time()
                    for kind, lo, hi in steps:
                        if kind == "events":
                            with tracer.span("service.ingest_event"):
                                for event in events[lo:hi]:
                                    ingest(event)
                        else:
                            with tracer.span("service.ingest_small_batch"):
                                service.ingest_batch(events[lo:hi], owned=False)
                    t0 = time.perf_counter()
                    with tracer.span("service.report_cold"):
                        first = service.report(epoch)
                    t1 = time.perf_counter()
                    with tracer.span("service.report_cached"):
                        for _ in range(CACHED_REPEATS):
                            again = service.report(epoch)
                    t2 = time.perf_counter()
                    cold.append(t1 - t0)
                    cached.append((t2 - t1) / CACHED_REPEATS)
                    segments.append(t2 - interval_at)
                    cpu_segments.append(time.process_time() - cpu_at)
                    with verify.measured():
                        live = harness.report_key(first)
                        repeat = live if again is first else harness.report_key(again)
                        query_keys.append(
                            (epoch, (part + 1) * QUERY_EVERY, live, repeat)
                        )
                        first = again = None
                    if epoch not in cycle_epochs:
                        continue
                    if part + 1 == schedule.quarter_parts:
                        with cycle.measured():
                            base = service.checkpoint()
                    elif part + 1 == 3 * schedule.quarter_parts:
                        with cycle.measured():
                            held = (part + 1) * QUERY_EVERY
                            sizes = ckpt.full_and_delta_cycle(
                                run,
                                service,
                                base,
                                epoch,
                                live,
                                Zero07Service.restore,
                                lambda restored: None,
                                held,
                                held - schedule.quarter_parts * QUERY_EVERY,
                            )
                            base = None
                            cycles_done += 1
                tick_at, cpu_at = time.perf_counter(), time.process_time()
                with tracer.span("service.tick"):
                    ingest(EpochTick(epoch))
                finalize.append(time.perf_counter() - tick_at)
                segments.append(finalize[-1])
                cpu_segments.append(time.process_time() - cpu_at)
            tracer.epoch = None
        wall = time.perf_counter() - started - verify.wall - cycle.wall
        cpu = harness.cpu_self() - cpu0 - verify.cpu - cycle.cpu
    except Exception as exc:
        failure = exc
    if not record and failure is None:
        return {}

    # -- compare after the clock stopped --------------------------------
    for epoch in range(num_epochs):
        report = produced.get(epoch)
        key = harness.report_key(report) if report is not None else None
        run.check(key, oracle[epoch], f"finalized epoch {epoch} ({failure!r})")
    for epoch, cut, first, again in query_keys:
        run.check(first, prefix[(epoch, cut)], f"cold report e{epoch}@{cut}")
        run.check(again, prefix[(epoch, cut)], f"cached report e{epoch}@{cut}")
    stats = service.stats
    expected_dups = sum(s.expected_duplicates for s in schedules[:num_epochs])
    expected_ooo = sum(s.expected_out_of_order for s in schedules[:num_epochs])
    run.op(
        failure is None
        and stats.duplicate_events == expected_dups
        and stats.out_of_order_events == expected_ooo
        and stats.late_events == 0,
        f"perturbation counters: {stats.duplicate_events} duplicates "
        f"(scripted {expected_dups}), {stats.out_of_order_events} out of order "
        f"(scripted {expected_ooo}), {stats.late_events} late",
    )
    planned = planned_ops(schedules[:num_epochs], cycle_epochs)
    done = num_epochs + 2 * len(query_keys) + ckpt.CHECKS_PER_CYCLE * cycles_done + 1
    for _ in range(planned - done):
        run.op(False, f"operation not reached ({failure!r})")
    if failure is not None:
        return {}

    events_total = sum(len(s.events) for s in schedules[:num_epochs])
    run.sample("pass_wall_s", wall)
    run.extend("pass_segment_s", segments)
    run.extend("cpu_segment_s", cpu_segments)
    run.sample("cpu_s", cpu)
    run.sample("cpu_events", events_total)
    run.extend("finalize_s", finalize)
    run.extend("report_cold_s", cold)
    run.extend("report_cached_s", cached)
    queries = (1 + CACHED_REPEATS) * len(cold)
    return {
        "wall": wall,
        "events": events_total,
        "rss_growth_mb": harness.current_rss_mb() - rss_before,
        "duplicate_events": stats.duplicate_events,
        "out_of_order_events": stats.out_of_order_events,
        "late_events": stats.late_events,
        "materializations_per_query": (
            stats.reports_materialized - stats.epochs_finalized
        )
        / queries,
        **sizes,
    }


def planned_ops(schedules: List[Schedule], cycle_epochs) -> int:
    """Finalized epochs + report queries + restore cycles + counter check."""
    queries = sum(2 * schedule.parts for schedule in schedules)
    restores = ckpt.CHECKS_PER_CYCLE * sum(
        1 for epoch in cycle_epochs if epoch < len(schedules)
    )
    return len(schedules) + queries + restores + 1


# ----------------------------------------------------------------------
def run_workload(run: Run) -> None:
    def one_setup():
        stream = harness.make_stream(run.workload, run.sizing, run.seed, run.lap)
        oracle = harness.final_oracle(stream, run.lap)
        rng = np.random.default_rng([run.seed, 0x7121C])
        schedules = [Schedule(events, rng) for events in stream.epochs]
        return stream, oracle, schedules

    stream, oracle, schedules = harness.time_setups(run, one_setup)
    rss_after_setup = harness.current_rss_mb()
    planned_min = planned_ops(schedules, checkpoint_epochs(len(schedules)))
    run.write_progress(planned_min)
    prefix = harness.prefix_oracle(
        stream, harness.equal_cuts(stream, schedules[0].parts)
    )
    harness.freeze_harness_heap()
    run.start_window()
    tracer = run.tracer

    if not run.quick:  # warm-up on the first epoch only
        trickle_pass(run, stream, schedules, oracle, prefix, record=False, epochs=1)

    def one_pass(_traced: bool) -> Dict[str, float]:
        info = trickle_pass(run, stream, schedules, oracle, prefix, record=True)
        run.write_progress(planned_min)
        return info

    log = harness.alternate_passes(run, 1.0, one_pass)
    per_pass, last = log.self_times, log.last

    if not run.trace:
        run.set_end_to_end(stream.events_total)
        run.set("peak_rss_mb", harness.peak_rss_self_mb())
        return

    for span_name in (
        "service.ingest_event",
        "service.ingest_small_batch",
        "service.tick",
        "service.report_cold",
        "service.report_cached",
    ):
        run.set(
            f"{span_name}_s", harness.median_self_time(per_pass, span_name), len(per_pass)
        )
    ckpt.set_layer_metrics(
        run,
        {name: harness.median_self_time(per_pass, name) for name in per_pass[-1]}
        if per_pass
        else {},
        last,
    )
    run.set_trace_shares(log.untraced, log.traced, log.coverage)
    if last:
        for counter in ("duplicate_events", "out_of_order_events", "late_events"):
            run.set(f"service.{counter}", last[counter])
        run.set("service.materializations_per_query", last["materializations_per_query"])
        run.set("state.rss_growth_mb", last["rss_growth_mb"])
    run.set("state.rss_after_setup_mb", rss_after_setup)
    run.set_tails()
    tracer.pass_id += 1
    layers.core_replay(run, stream)
    run.set("loadgen.generate_events_per_s", stream.events_total / stream.generate_seconds)
    run.set("loadgen.path_share", layers.path_share(stream))
