"""The CI step "Perf bars on the ruler's --quick run dir" gates what it says.

The step's Python heredoc is taken from ``.github/workflows/ci.yml`` as
written and run against a ``ruler-quick/summary.json`` built in the shape the
ruler writes: the committed ``ruler/baseline/summary.json`` with its values
replaced by quick-run readings.  Every bar is checked on every workload, so a
bar that stops firing, a workload that drops out of the gate, or a key the
ruler no longer writes fails here and not first on a CI runner.
"""

from __future__ import annotations

import copy
import json
import re
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
CI_WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"
RULER_BASELINE = REPO / "ruler" / "baseline" / "summary.json"
STEP_NAME = "Perf bars on the ruler's --quick run dir"


def _gate_source() -> str:
    """The step's ``python - <<'EOF'`` body, dedented."""
    text = CI_WORKFLOW.read_text()
    step = text.index(f"- name: {STEP_NAME}")
    match = re.compile(r"python - <<'EOF'\n(.*?)^\s*EOF\n", re.M | re.S).search(text, step)
    assert match is not None, f"no heredoc in the {STEP_NAME!r} step"
    return textwrap.dedent(match.group(1))


GATE = compile(_gate_source(), f"{CI_WORKFLOW.name} ({STEP_NAME})", "exec")
BASELINE = json.loads(RULER_BASELINE.read_text())
WORKLOADS = sorted(BASELINE["workloads"])

#: quick-run readings inside every bar (the order of the worst of seeds 0-4).
QUICK = {
    "sustained_events_per_s": 500_000.0,
    "report_cold_p50_s": 0.0015,
    "report_cached_p50_s": 0.0006,
    "checkpoint_restore_s": 0.003,
    "delta_restore_s": 0.006,
}


def _summary(**overrides):
    """The baseline's shape with QUICK values; ``overrides`` maps a workload
    to ``{metric or "status"/"failed": value}`` on its ``end_to_end``."""
    summary = copy.deepcopy(BASELINE)
    for name, entry in summary["workloads"].items():
        run = entry["end_to_end"]
        for key, value in QUICK.items():
            run["metrics"][key]["value"] = value
        for key, value in overrides.get(name, {}).items():
            if key in run["metrics"]:
                run["metrics"][key]["value"] = value
            else:
                run[key] = value
    return summary


def _run_gate(summary, tmp_path, monkeypatch):
    """Run the heredoc over ``summary``; the SystemExit message, or None."""
    run_dir = tmp_path / "ruler-quick"
    run_dir.mkdir()
    (run_dir / "summary.json").write_text(json.dumps(summary))
    monkeypatch.chdir(tmp_path)
    try:
        exec(GATE, {"__name__": "__main__"})
    except SystemExit as stop:
        assert isinstance(stop.code, str), stop.code
        return stop.code
    return None


def test_the_gate_reads_keys_the_ruler_writes():
    run = BASELINE["workloads"]["steady_ingest"]["end_to_end"]
    assert {"status", "failed", "metrics"} <= set(run)
    for key in QUICK:
        assert key in run["metrics"] and "value" in run["metrics"][key], key
    assert WORKLOADS == sorted(
        ["steady_ingest", "sharded_process", "operator_trickle", "fleet_tcp"]
    )


def test_a_run_inside_every_bar_passes_and_prints_the_ratio(tmp_path, monkeypatch, capsys):
    summary = _summary(sharded_process={"sustained_events_per_s": 75_000.0})
    assert _run_gate(summary, tmp_path, monkeypatch) is None
    out = capsys.readouterr().out
    for name in WORKLOADS:
        assert re.search(rf"^{name} +report p50 cold 1\.50 ms, cached 600\.0 us", out, re.M)
    assert "sharded_process / steady_ingest sustained: 0.15x (not gated)" in out


def test_the_bars_are_strict_at_their_edges(tmp_path, monkeypatch):
    summary = _summary(
        **{
            name: {
                "report_cold_p50_s": 0.00999,
                "report_cached_p50_s": 0.00999,
                "delta_restore_s": 3 * QUICK["checkpoint_restore_s"],
            }
            for name in WORKLOADS
        }
    )
    assert _run_gate(summary, tmp_path, monkeypatch) is None


VIOLATIONS = {
    "status": ({"status": "timeout"}, "status 'timeout', 0 failed"),
    "failed": ({"failed": 1}, "status 'ok', 1 failed"),
    "cold": ({"report_cold_p50_s": 0.010}, "cold report p50 10.0 ms >= 10 ms"),
    "cached": ({"report_cached_p50_s": 0.012}, "cached report p50 12.0 ms >= 10 ms"),
    "delta": ({"delta_restore_s": 0.0091}, "delta restore 3.03x > 3x the full restore"),
}


@pytest.mark.parametrize("bar", sorted(VIOLATIONS))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_bar_fails_the_gate_on_each_workload(workload, bar, tmp_path, monkeypatch):
    override, message = VIOLATIONS[bar]
    failure = _run_gate(_summary(**{workload: override}), tmp_path, monkeypatch)
    assert failure == f"{workload}: {message}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_missing_workload_fails_the_gate(workload, tmp_path, monkeypatch):
    summary = _summary()
    del summary["workloads"][workload]
    assert _run_gate(summary, tmp_path, monkeypatch) == f"workloads missing: ['{workload}']"


def test_every_failure_is_reported_at_once(tmp_path, monkeypatch):
    summary = _summary(
        steady_ingest={"report_cold_p50_s": 0.02},
        fleet_tcp={"failed": 2},
    )
    del summary["workloads"]["operator_trickle"]
    failure = _run_gate(summary, tmp_path, monkeypatch)
    assert failure.split("; ") == [
        "workloads missing: ['operator_trickle']",
        "steady_ingest: cold report p50 20.0 ms >= 10 ms",
        "fleet_tcp: status 'ok', 2 failed",
    ]


def test_the_ratio_is_left_out_when_sharded_process_did_not_finish(
    tmp_path, monkeypatch, capsys
):
    summary = _summary(sharded_process={"status": "timeout"})
    assert _run_gate(summary, tmp_path, monkeypatch) == (
        "sharded_process: status 'timeout', 0 failed"
    )
    assert "sustained" not in capsys.readouterr().out
