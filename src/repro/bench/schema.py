"""Schema of the versioned ``BENCH_service.json`` perf artifact.

The validator is deliberately strict about *shape* (versioned keys, monotonic
epoch counters, positive throughput, known enum values) and deliberately
silent about *absolute speed* — machines differ; CI must fail on a malformed
artifact, never on a slow runner.  Bump :data:`BENCH_SCHEMA_VERSION` on any
incompatible layout change and teach the validator the new shape in the same
commit.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: document schema version written by the current runner; bump on
#: incompatible layout changes.
BENCH_SCHEMA_VERSION = 4

#: exact top-level key set; the ``fleet`` block is optional on top of it.
TOP_LEVEL_KEYS = {
    "schema_version",
    "generated_by",
    "created_unix",
    "config",
    "environment",
    "runs",
}

#: exact key set of one run entry.
RUN_KEYS = {
    "service",
    "engine",
    "num_shards",
    "backend",
    "workers",
    "scaling_efficiency",
    "ingest",
    "per_event_baseline",
    "speedup_vs_per_event",
    "report_latency",
    "finalize",
    "checkpoint",
    "epochs",
    "peak_rss_kb",
}

CONFIG_KEYS = {
    "fabric",
    "params",
    "events",
    "epochs",
    "events_per_epoch",
    "seed",
    "profile",
    "engines",
    "shard_counts",
    "backends",
    "baseline_events",
    "timeline",
    #: the per-cut report query count, so the latency numbers (which mix one
    #: cold query with cached follow-ups per cut) are reproducible.
    "report_queries",
}

#: report_latency separates the cold first-query-after-new-evidence latency
#: from the (cached) steady-state percentiles.
REPORT_LATENCY_KEYS = (
    "queries",
    "mean_seconds",
    "p50_seconds",
    "max_seconds",
    "cold_mean_seconds",
    "cold_max_seconds",
)

#: checkpoint blocks measure the binary container as the primary format
#: (``save_seconds``/``restore_seconds``/``binary_bytes``), keep the JSON
#: text path for comparison, and add delta-checkpoint metrics.
CHECKPOINT_KEYS = (
    "save_seconds",
    "restore_seconds",
    "json_bytes",
    "binary_bytes",
    "json_save_seconds",
    "json_restore_seconds",
    "delta_bytes",
    "delta_save_seconds",
    "delta_restore_seconds",
)

#: the optional top-level ``fleet`` block: socket-ingest
#: throughput per transport, backpressure engagements, and the reconnect
#: recovery measurement (which doubles as a bit-identity correctness bar).
FLEET_KEYS = {
    "fabric",
    "events",
    "epochs",
    "agents",
    "shards",
    "mode",
    "transports",
    "backpressure_engagements",
    "reconnect",
}

FLEET_TRANSPORTS = ("tcp", "unix", "inproc")


class BenchSchemaError(ValueError):
    """The bench document violates the schema; ``errors`` lists every reason."""

    def __init__(self, errors: List[str]) -> None:
        self.errors = list(errors)
        super().__init__(
            "invalid BENCH_service.json document:\n  - " + "\n  - ".join(self.errors)
        )


def _require_number(
    errors: List[str], value: Any, where: str, positive: bool = False
) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        errors.append(f"{where} must be a number, got {value!r}")
    elif positive and not value > 0:
        errors.append(f"{where} must be > 0, got {value!r}")


def _validate_ingest(errors: List[str], data: Any, where: str) -> None:
    if not isinstance(data, dict):
        errors.append(f"{where} must be an object")
        return
    for key in ("events", "seconds", "events_per_sec"):
        if key not in data:
            errors.append(f"{where} is missing {key!r}")
        else:
            _require_number(errors, data[key], f"{where}.{key}", positive=True)


def _validate_run(errors: List[str], run: Any, where: str) -> None:
    if not isinstance(run, dict):
        errors.append(f"{where} must be an object")
        return
    missing = RUN_KEYS - set(run)
    extra = set(run) - RUN_KEYS
    if missing:
        errors.append(f"{where} is missing keys {sorted(missing)}")
    if extra:
        errors.append(f"{where} has unknown keys {sorted(extra)}")
    if run.get("service") not in ("single", "sharded"):
        errors.append(f"{where}.service must be 'single' or 'sharded'")
    if run.get("engine") not in ("arrays", "dicts"):
        errors.append(f"{where}.engine must be 'arrays' or 'dicts'")
    shards = run.get("num_shards")
    if not isinstance(shards, int) or shards < 1:
        errors.append(f"{where}.num_shards must be an int >= 1")
    if run.get("service") == "single" and shards != 1:
        errors.append(f"{where}: single service must have num_shards == 1")
    backend = run.get("backend")
    if backend not in ("inline", "process"):
        errors.append(f"{where}.backend must be 'inline' or 'process'")
    if run.get("service") == "single" and backend != "inline":
        errors.append(f"{where}: single service runs are always inline")
    workers = run.get("workers")
    if not isinstance(workers, int) or workers < 0:
        errors.append(f"{where}.workers must be an int >= 0")
    elif backend == "inline" and workers != 0:
        errors.append(f"{where}: inline backend must record workers == 0")
    elif backend == "process" and workers < 1:
        errors.append(f"{where}: process backend must record workers >= 1")
    efficiency = run.get("scaling_efficiency")
    if efficiency is not None:
        _require_number(
            errors, efficiency, f"{where}.scaling_efficiency", positive=True
        )

    if "ingest" in run:
        _validate_ingest(errors, run["ingest"], f"{where}.ingest")
        if isinstance(run["ingest"], dict) and run["ingest"].get("mode") not in (
            "batch-owned",
            "batch",
            "per-event",
        ):
            errors.append(f"{where}.ingest.mode is not a known ingest mode")
    baseline = run.get("per_event_baseline")
    if baseline is not None:
        _validate_ingest(errors, baseline, f"{where}.per_event_baseline")
        speedup = run.get("speedup_vs_per_event")
        _require_number(errors, speedup, f"{where}.speedup_vs_per_event", positive=True)

    latency = run.get("report_latency")
    if latency is not None:
        if not isinstance(latency, dict):
            errors.append(f"{where}.report_latency must be an object or null")
        else:
            for key in REPORT_LATENCY_KEYS:
                if key not in latency:
                    errors.append(f"{where}.report_latency is missing {key!r}")
                else:
                    _require_number(
                        errors, latency[key], f"{where}.report_latency.{key}"
                    )

    finalize = run.get("finalize")
    if not isinstance(finalize, dict) or not {"epochs", "seconds"} <= set(
        finalize or {}
    ):
        errors.append(f"{where}.finalize must be an object with epochs/seconds")

    checkpoint = run.get("checkpoint")
    if checkpoint is not None:
        if not isinstance(checkpoint, dict):
            errors.append(f"{where}.checkpoint must be an object or null")
        else:
            for key in CHECKPOINT_KEYS:
                if key not in checkpoint:
                    errors.append(f"{where}.checkpoint is missing {key!r}")
                else:
                    _require_number(
                        errors, checkpoint[key], f"{where}.checkpoint.{key}"
                    )
            if checkpoint.get("restore_bit_identical") is not True:
                errors.append(
                    f"{where}.checkpoint.restore_bit_identical must be true — "
                    "a restore that changes reports is a correctness bug, not "
                    "a perf number"
                )
            for key in ("v1_restore_bit_identical", "delta_bit_identical"):
                if checkpoint.get(key) is not True:
                    errors.append(
                        f"{where}.checkpoint.{key} must be true — format "
                        "compatibility is a correctness bar, not a perf number"
                    )

    epochs = run.get("epochs")
    if not isinstance(epochs, list) or not epochs:
        errors.append(f"{where}.epochs must be a non-empty list")
    else:
        previous = None
        for i, entry in enumerate(epochs):
            here = f"{where}.epochs[{i}]"
            if not isinstance(entry, dict) or "epoch" not in entry:
                errors.append(f"{here} must be an object with an 'epoch' key")
                continue
            epoch = entry["epoch"]
            if not isinstance(epoch, int):
                errors.append(f"{here}.epoch must be an int")
                continue
            if previous is not None and epoch <= previous:
                errors.append(
                    f"{here}.epoch={epoch} is not strictly increasing "
                    f"(previous {previous})"
                )
            previous = epoch
            if "events" in entry:
                _require_number(errors, entry["events"], f"{here}.events")

    _require_number(errors, run.get("peak_rss_kb"), f"{where}.peak_rss_kb")


def _validate_fleet(errors: List[str], fleet: Any) -> None:
    where = "fleet"
    if not isinstance(fleet, dict):
        errors.append(f"{where} must be an object")
        return
    missing = FLEET_KEYS - set(fleet)
    extra = set(fleet) - FLEET_KEYS
    if missing:
        errors.append(f"{where} is missing keys {sorted(missing)}")
    if extra:
        errors.append(f"{where} has unknown keys {sorted(extra)}")
    for key in ("events", "epochs"):
        if key in fleet:
            _require_number(errors, fleet[key], f"{where}.{key}", positive=True)
    for key in ("agents", "shards"):
        value = fleet.get(key)
        if key in fleet and (not isinstance(value, int) or value < 1):
            errors.append(f"{where}.{key} must be an int >= 1")
    if "mode" in fleet and fleet["mode"] not in ("events", "columns"):
        errors.append(f"{where}.mode must be 'events' or 'columns'")
    transports = fleet.get("transports")
    if not isinstance(transports, dict) or not transports:
        errors.append(f"{where}.transports must be a non-empty object")
    else:
        unknown = set(transports) - set(FLEET_TRANSPORTS)
        if unknown:
            errors.append(
                f"{where}.transports has unknown transports {sorted(unknown)}"
            )
        for name in FLEET_TRANSPORTS:
            if name in transports:
                _validate_ingest(
                    errors, transports[name], f"{where}.transports.{name}"
                )
    engagements = fleet.get("backpressure_engagements")
    if "backpressure_engagements" in fleet and (
        not isinstance(engagements, int) or engagements < 0
    ):
        errors.append(f"{where}.backpressure_engagements must be an int >= 0")
    reconnect = fleet.get("reconnect")
    if "reconnect" in fleet:
        if not isinstance(reconnect, dict):
            errors.append(f"{where}.reconnect must be an object")
        else:
            _require_number(
                errors,
                reconnect.get("recovery_seconds"),
                f"{where}.reconnect.recovery_seconds",
                positive=True,
            )
            redelivered = reconnect.get("redelivered_events")
            if not isinstance(redelivered, int) or redelivered < 0:
                errors.append(
                    f"{where}.reconnect.redelivered_events must be an int >= 0"
                )
            if reconnect.get("bit_identical") is not True:
                errors.append(
                    f"{where}.reconnect.bit_identical must be true — a "
                    "reconnect that changes reports is a correctness bug, "
                    "not a perf number"
                )


def validate_bench_report(document: Any) -> Dict[str, Any]:
    """Validate a bench document; returns it unchanged or raises.

    Raises
    ------
    BenchSchemaError
        With *every* violation listed, so a drifted artifact is diagnosed in
        one round trip.
    """
    errors: List[str] = []
    if not isinstance(document, dict):
        raise BenchSchemaError(["document must be a JSON object"])
    version = document.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        errors.append(
            f"schema_version is {version!r}; only version "
            f"{BENCH_SCHEMA_VERSION} is supported (regenerate the artifact "
            "with `repro-007 bench`)"
        )
    missing = TOP_LEVEL_KEYS - set(document)
    extra = set(document) - TOP_LEVEL_KEYS - {"fleet"}
    if missing:
        errors.append(f"document is missing keys {sorted(missing)}")
    if extra:
        errors.append(f"document has unknown keys {sorted(extra)}")
    if "fleet" in document:  # optional: not every run exercises the sockets
        _validate_fleet(errors, document["fleet"])
    if "created_unix" in document:
        _require_number(errors, document["created_unix"], "created_unix", positive=True)
    if not isinstance(document.get("generated_by"), str):
        errors.append("generated_by must be a string")

    config = document.get("config")
    if not isinstance(config, dict):
        errors.append("config must be an object")
    else:
        missing_config = CONFIG_KEYS - set(config)
        if missing_config:
            errors.append(f"config is missing keys {sorted(missing_config)}")
        for key in ("events", "epochs", "events_per_epoch"):
            if key in config:
                _require_number(errors, config[key], f"config.{key}", positive=True)

    runs = document.get("runs")
    if not isinstance(runs, list) or not runs:
        errors.append("runs must be a non-empty list")
    else:
        seen = set()
        for i, run in enumerate(runs):
            _validate_run(errors, run, f"runs[{i}]")
            if isinstance(run, dict):
                key = (
                    run.get("service"),
                    run.get("engine"),
                    run.get("backend"),
                    run.get("num_shards"),
                )
                if key in seen:
                    errors.append(f"runs[{i}] duplicates configuration {key}")
                seen.add(key)

    if errors:
        raise BenchSchemaError(errors)
    return document
