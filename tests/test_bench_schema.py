"""Schema/golden tests for the ``BENCH_service.json`` perf artifact.

The document format is the repo's perf trajectory; it must not drift
silently.  A tiny in-process bench run must produce a schema-valid document
with exactly the pinned key sets, strictly increasing epoch counters and
positive throughput — and the validator must reject every class of
corruption CI is meant to catch.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import (
    BENCH_SCHEMA_VERSION,
    BenchConfig,
    BenchSchemaError,
    format_bench_table,
    run_service_bench,
    validate_bench_report,
    write_bench_report,
)
from repro.loadgen import WorkloadProfile

#: the golden key sets; changing them is a schema bump.
GOLDEN_TOP_KEYS = {
    "schema_version",
    "generated_by",
    "created_unix",
    "config",
    "environment",
    "runs",
}
GOLDEN_RUN_KEYS = {
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

#: checkpoint block: binary container is the primary format,
#: JSON kept for comparison, plus delta metrics and compat proofs.
GOLDEN_CHECKPOINT_KEYS = {
    "save_seconds",
    "restore_seconds",
    "binary_bytes",
    "json_save_seconds",
    "json_restore_seconds",
    "json_bytes",
    "delta_bytes",
    "delta_save_seconds",
    "delta_restore_seconds",
    "restore_bit_identical",
    "v1_restore_bit_identical",
    "delta_bit_identical",
}

#: report latency separates the cold first-query cost from the
#: (cached) steady-state percentiles.
GOLDEN_REPORT_LATENCY_KEYS = {
    "queries",
    "mean_seconds",
    "p50_seconds",
    "max_seconds",
    "cold_mean_seconds",
    "cold_max_seconds",
}


@pytest.fixture(scope="module")
def tiny_document():
    config = BenchConfig(
        fabric="tiny",
        events=2_000,
        epochs=2,
        seed=3,
        profile=WorkloadProfile.uniform(),
        engines=("arrays",),
        shard_counts=(1, 2),
        backends=("inline", "process"),
        baseline_events=500,
        report_queries=1,
    )
    return run_service_bench(config)


def valid_fleet_block():
    """A hand-built fleet block shaped exactly like ``run_fleet_bench``'s."""
    return {
        "fabric": "medium",
        "events": 400_000,
        "epochs": 4,
        "agents": 4,
        "shards": 1,
        "mode": "columns",
        "transports": {
            name: {
                "events": 400_000,
                "seconds": 1.0,
                "events_per_sec": 400_000.0,
            }
            for name in ("tcp", "unix", "inproc")
        },
        "backpressure_engagements": 1,
        "reconnect": {
            "recovery_seconds": 0.04,
            "redelivered_events": 1024,
            "bit_identical": True,
        },
    }


class TestProducedDocument:
    def test_document_is_schema_valid_and_json_round_trips(self, tiny_document):
        validate_bench_report(tiny_document)
        round_tripped = json.loads(json.dumps(tiny_document))
        validate_bench_report(round_tripped)

    def test_golden_key_sets(self, tiny_document):
        assert set(tiny_document) == GOLDEN_TOP_KEYS
        assert tiny_document["schema_version"] == BENCH_SCHEMA_VERSION
        for run in tiny_document["runs"]:
            assert set(run) == GOLDEN_RUN_KEYS
            assert set(run["checkpoint"]) == GOLDEN_CHECKPOINT_KEYS
            assert set(run["report_latency"]) == GOLDEN_REPORT_LATENCY_KEYS

    def test_epoch_counters_are_monotonic_and_throughput_positive(
        self, tiny_document
    ):
        for run in tiny_document["runs"]:
            epochs = [entry["epoch"] for entry in run["epochs"]]
            assert epochs == sorted(set(epochs))
            assert run["ingest"]["events_per_sec"] > 0
            assert run["per_event_baseline"]["events_per_sec"] > 0
            assert run["speedup_vs_per_event"] > 0
            assert run["checkpoint"]["restore_bit_identical"] is True
            assert run["checkpoint"]["v1_restore_bit_identical"] is True
            assert run["checkpoint"]["delta_bit_identical"] is True
            assert 0 < run["checkpoint"]["binary_bytes"] < (
                run["checkpoint"]["json_bytes"]
            )

    def test_matrix_covers_requested_configurations(self, tiny_document):
        configs = {
            (run["engine"], run["backend"], run["num_shards"])
            for run in tiny_document["runs"]
        }
        # process-1 is skipped on purpose: one worker behind a pipe measures
        # only transport overhead; the 1-shard reference is the inline run.
        assert configs == {
            ("arrays", "inline", 1),
            ("arrays", "inline", 2),
            ("arrays", "process", 2),
        }
        for run in tiny_document["runs"]:
            expected = "single" if run["num_shards"] == 1 else "sharded"
            assert run["service"] == expected
            if run["backend"] == "inline":
                assert run["workers"] == 0
            else:
                assert run["workers"] >= 1

    def test_scaling_efficiency_is_normalized_to_the_inline_reference(
        self, tiny_document
    ):
        by_key = {
            (run["backend"], run["num_shards"]): run
            for run in tiny_document["runs"]
        }
        reference = by_key[("inline", 1)]["ingest"]["events_per_sec"]
        assert by_key[("inline", 1)]["scaling_efficiency"] == 1.0
        for (backend, shards), run in by_key.items():
            expected = (run["ingest"]["events_per_sec"] / reference) / shards
            assert run["scaling_efficiency"] == pytest.approx(expected)

    def test_write_and_artifacts(self, tiny_document, tmp_path):
        out = tmp_path / "BENCH_service.json"
        write_bench_report(tiny_document, out, artifacts_dir=tmp_path / "runs")
        validate_bench_report(json.loads(out.read_text()))
        artifacts = sorted(p.name for p in (tmp_path / "runs").iterdir())
        assert artifacts == [
            "bench_run_arrays_inline_shards1.json",
            "bench_run_arrays_inline_shards2.json",
            "bench_run_arrays_process_shards2.json",
        ]

    def test_format_table_mentions_every_run(self, tiny_document):
        table = format_bench_table(tiny_document)
        assert table.count("arrays") == len(tiny_document["runs"])


class TestOlderVersionCompatibility:
    """There is none: the v1-v3 readers are gone (the tree's only artifact is
    current), and everything those versions added is simply required."""

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_older_versions_are_rejected_naming_found_and_supported(
        self, tiny_document, version
    ):
        old = copy.deepcopy(tiny_document)
        old["schema_version"] = version
        with pytest.raises(BenchSchemaError) as excinfo:
            validate_bench_report(old)
        [error] = excinfo.value.errors
        assert f"schema_version is {version}" in error
        assert f"only version {BENCH_SCHEMA_VERSION} is supported" in error

    def test_version_3_requires_the_new_checkpoint_metrics(self, tiny_document):
        broken = copy.deepcopy(tiny_document)
        del broken["runs"][0]["checkpoint"]["binary_bytes"]
        with pytest.raises(BenchSchemaError):
            validate_bench_report(broken)

    def test_version_3_requires_the_cold_latency_metrics(self, tiny_document):
        broken = copy.deepcopy(tiny_document)
        del broken["runs"][0]["report_latency"]["cold_mean_seconds"]
        with pytest.raises(BenchSchemaError):
            validate_bench_report(broken)


class TestFleetBlock:
    """The optional ``fleet`` socket-ingest block."""

    def corrupt(self, document, mutate):
        broken = copy.deepcopy(document)
        broken["fleet"] = valid_fleet_block()
        mutate(broken)
        with pytest.raises(BenchSchemaError):
            validate_bench_report(broken)

    def test_document_with_fleet_block_is_valid(self, tiny_document):
        document = copy.deepcopy(tiny_document)
        document["fleet"] = valid_fleet_block()
        validate_bench_report(document)

    def test_fleet_block_stays_optional(self, tiny_document):
        assert "fleet" not in tiny_document
        validate_bench_report(tiny_document)

    def test_rejects_missing_fleet_keys(self, tiny_document):
        self.corrupt(tiny_document, lambda d: d["fleet"].pop("transports"))
        self.corrupt(tiny_document, lambda d: d["fleet"].pop("reconnect"))

    def test_rejects_unknown_fleet_keys(self, tiny_document):
        self.corrupt(
            tiny_document, lambda d: d["fleet"].update(warp_factor=9)
        )

    def test_rejects_unknown_transport(self, tiny_document):
        def mutate(document):
            document["fleet"]["transports"]["pigeon"] = {
                "events": 1, "seconds": 1.0, "events_per_sec": 1.0
            }

        self.corrupt(tiny_document, mutate)

    def test_rejects_zero_transport_throughput(self, tiny_document):
        def mutate(document):
            document["fleet"]["transports"]["tcp"]["events_per_sec"] = 0.0

        self.corrupt(tiny_document, mutate)

    def test_rejects_non_identical_reconnect(self, tiny_document):
        def mutate(document):
            document["fleet"]["reconnect"]["bit_identical"] = False

        self.corrupt(tiny_document, mutate)

    def test_rejects_bad_mode_and_counts(self, tiny_document):
        self.corrupt(
            tiny_document, lambda d: d["fleet"].update(mode="quantum")
        )
        self.corrupt(tiny_document, lambda d: d["fleet"].update(agents=0))
        self.corrupt(
            tiny_document,
            lambda d: d["fleet"].update(backpressure_engagements=-1),
        )


class TestValidatorRejectsDrift:
    def corrupt(self, document, mutate):
        broken = copy.deepcopy(document)
        mutate(broken)
        with pytest.raises(BenchSchemaError):
            validate_bench_report(broken)

    def test_rejects_wrong_version(self, tiny_document):
        self.corrupt(tiny_document, lambda d: d.update(schema_version=99))

    def test_rejects_missing_top_level_key(self, tiny_document):
        self.corrupt(tiny_document, lambda d: d.pop("config"))

    def test_rejects_unknown_top_level_key(self, tiny_document):
        self.corrupt(tiny_document, lambda d: d.update(vibes="good"))

    def test_rejects_empty_runs(self, tiny_document):
        self.corrupt(tiny_document, lambda d: d.update(runs=[]))

    def test_rejects_non_monotonic_epochs(self, tiny_document):
        def mutate(document):
            document["runs"][0]["epochs"][0]["epoch"] = 5

        self.corrupt(tiny_document, mutate)

    def test_rejects_zero_throughput(self, tiny_document):
        def mutate(document):
            document["runs"][0]["ingest"]["events_per_sec"] = 0.0

        self.corrupt(tiny_document, mutate)

    def test_rejects_unknown_engine_and_run_keys(self, tiny_document):
        self.corrupt(
            tiny_document, lambda d: d["runs"][0].update(engine="quantum")
        )
        self.corrupt(
            tiny_document, lambda d: d["runs"][0].update(warp_factor=9)
        )

    def test_rejects_non_identical_restore(self, tiny_document):
        def mutate(document):
            document["runs"][0]["checkpoint"]["restore_bit_identical"] = False

        self.corrupt(tiny_document, mutate)

    def test_rejects_non_identical_v1_restore(self, tiny_document):
        def mutate(document):
            document["runs"][0]["checkpoint"]["v1_restore_bit_identical"] = False

        self.corrupt(tiny_document, mutate)

    def test_rejects_non_identical_delta_restore(self, tiny_document):
        def mutate(document):
            document["runs"][0]["checkpoint"]["delta_bit_identical"] = False

        self.corrupt(tiny_document, mutate)

    def test_rejects_duplicate_run_configuration(self, tiny_document):
        def mutate(document):
            document["runs"].append(copy.deepcopy(document["runs"][0]))

        self.corrupt(tiny_document, mutate)

    def test_rejects_unknown_backend(self, tiny_document):
        self.corrupt(
            tiny_document, lambda d: d["runs"][0].update(backend="carrier-pigeon")
        )

    def test_rejects_inline_run_recording_workers(self, tiny_document):
        def mutate(document):
            for run in document["runs"]:
                if run["backend"] == "inline":
                    run["workers"] = 2
                    return

        self.corrupt(tiny_document, mutate)

    def test_rejects_process_run_without_workers(self, tiny_document):
        def mutate(document):
            for run in document["runs"]:
                if run["backend"] == "process":
                    run["workers"] = 0
                    return

        self.corrupt(tiny_document, mutate)

    def test_rejects_single_service_on_process_backend(self, tiny_document):
        def mutate(document):
            for run in document["runs"]:
                if run["service"] == "single":
                    run["backend"] = "process"
                    run["workers"] = 1
                    return

        self.corrupt(tiny_document, mutate)

    def test_error_lists_every_violation(self, tiny_document):
        broken = copy.deepcopy(tiny_document)
        broken["schema_version"] = 99
        broken["runs"][0]["ingest"]["events_per_sec"] = -1
        with pytest.raises(BenchSchemaError) as excinfo:
            validate_bench_report(broken)
        assert len(excinfo.value.errors) >= 2
