"""One mid-epoch checkpoint cycle, shared by every workload.

A *cycle* is what a restart costs: a full save/restore and a delta
save/restore of the same live service, against a base checkpoint taken
earlier in the epoch.  Both restored services' reports are compared with the
live one (two operations).
"""

from __future__ import annotations

import time
from typing import Callable, Dict

from ruler import harness
from ruler.harness import Run

CHECKS_PER_CYCLE = 2


def full_and_delta_cycle(
    run: Run,
    service,
    base,
    epoch: int,
    live: harness.ReportKey,
    restore: Callable,
    close: Callable,
    events_held: int,
    events_since_base: int,
    verify: bool = True,
) -> Dict[str, float]:
    """Time one cycle on ``service``; returns the serialized sizes per event.

    ``restore(checkpoint)`` rebuilds a service of the workload's shape and
    ``close(service)`` releases it; the four timings go straight into
    ``run.samples`` under the end-to-end metric names.  With ``verify`` the
    two restored services' reports are compared with ``live`` (two
    operations); a workload verifies its first cycle and only times the repeats,
    because a restored sharded fleet's report (gather-and-replay) costs more
    than the whole cycle.
    """
    from repro.api import Checkpoint

    tracer = run.tracer
    t0 = time.perf_counter()
    with tracer.span("checkpoint.capture"):
        full = service.checkpoint()
    with tracer.span("checkpoint.to_bytes"):
        blob = full.to_bytes()
    t1 = time.perf_counter()
    with tracer.span("checkpoint.from_bytes"):
        loaded = Checkpoint.from_bytes(blob)
    with tracer.span("checkpoint.restore"):
        restored = restore(loaded)
    t2 = time.perf_counter()
    try:
        if verify:
            run.check(
                harness.report_key(restored.report(epoch)),
                live,
                "report of the fully restored service",
            )
    finally:
        close(restored)
    restored = loaded = full = None

    t3 = time.perf_counter()
    with tracer.span("checkpoint.delta_capture"):
        delta = service.checkpoint(base=base)
    with tracer.span("checkpoint.delta_to_bytes"):
        delta_blob = delta.to_bytes()
    t4 = time.perf_counter()
    with tracer.span("checkpoint.delta_from_bytes"):
        delta_loaded = Checkpoint.from_bytes(delta_blob)
    with tracer.span("checkpoint.apply_delta"):
        merged = base.apply_delta(delta_loaded)
    with tracer.span("checkpoint.delta_restore"):
        restored = restore(merged)
    t5 = time.perf_counter()
    try:
        if verify:
            run.check(
                harness.report_key(restored.report(epoch)),
                live,
                "report of the delta-restored service",
            )
    finally:
        close(restored)

    run.sample("checkpoint_save_s", t1 - t0)
    run.sample("checkpoint_restore_s", t2 - t1)
    run.sample("delta_save_s", t4 - t3)
    run.sample("delta_restore_s", t5 - t4)
    return {
        "binary_bytes_per_event": len(blob) / events_held,
        "delta_bytes_per_event": len(delta_blob) / events_since_base,
    }


def set_layer_metrics(run: Run, times: Dict[str, float], sizes: Dict[str, float]) -> None:
    """``api.checkpoint`` layer metrics from one traced cycle's self times."""
    for name in (
        "checkpoint.capture",
        "checkpoint.to_bytes",
        "checkpoint.from_bytes",
        "checkpoint.restore",
        "checkpoint.delta_capture",
        "checkpoint.apply_delta",
        "checkpoint.delta_restore",
    ):
        run.set(f"{name}_s", times.get(name, 0.0))
    for name in ("binary_bytes_per_event", "delta_bytes_per_event"):
        if name in sizes:
            run.set(f"checkpoint.{name}", sizes[name])
