"""Tests of the ruler itself (not part of the tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest ruler/test_ruler.py -q

Everything runs the ``--quick`` preset: ``tiny`` fabric, 2 epochs x 2 000
events, one pass per phase.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

RULER = Path(__file__).resolve().parent
REPO = RULER.parent
sys.path.insert(0, str(REPO))

from ruler.harness import WORKLOADS  # noqa: E402
from ruler.trace import read_jsonl  # noqa: E402

DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())


def run_ruler(*args, timeout=60):
    return subprocess.run(
        [sys.executable, str(RULER / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def processes_mentioning(needle: str):
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
        except OSError:
            continue
        if needle.encode() in cmdline:
            found.append(int(entry))
    return found


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ruler-quick")
    started = time.perf_counter()
    done = run_ruler("--quick", "--seed", "0", "--out", str(out))
    elapsed = time.perf_counter() - started
    return out, done, elapsed


def test_quick_runs_every_workload_in_time(quick_run):
    out, done, elapsed = quick_run
    assert done.returncode == 0, done.stderr[-2000:]
    assert elapsed < 30.0
    assert not processes_mentioning(str(out))


def test_declared_workloads_are_ruler_workloads():
    declared = [w["name"] for w in DECLARED["workloads"]]
    assert set(declared) == set(WORKLOADS) - {"sharded_process"}


def test_printed_metric_names_equal_the_declared_ones(quick_run):
    _out, done, _elapsed = quick_run
    printed = set()
    for line in done.stdout.splitlines():
        if line.startswith(("==", "!!")) or not line.strip():
            continue
        printed.add(line.split()[0])
    declared = {m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
    assert printed - {"failed_ops_share"} == declared
    assert "failed_ops_share" in printed
    assert "MISSING" not in done.stdout


def test_no_operation_failed_and_every_layer_metric_is_declared(quick_run):
    out, _done, _elapsed = quick_run
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(summary["workloads"]) == sorted(WORKLOADS)
    end_to_end = {m["name"] for m in DECLARED["end_to_end"]}
    per_layer = {m["name"] for m in DECLARED["per_layer"]}
    for workload, entry in summary["workloads"].items():
        for kind, names in (("end_to_end", end_to_end), ("traced", per_layer)):
            result = entry[kind]
            assert result["status"] == "ok", (workload, kind, result["status"])
            assert result["attempted"] > 0
            assert result["failed"] == 0, (workload, kind, result["failures"])
            assert set(result["metrics"]) <= names, (workload, kind)
        assert set(entry["end_to_end"]["metrics"]) == end_to_end, workload
        assert "trace.coverage_share" in entry["traced"]["metrics"], workload
        assert "trace.overhead_share" in entry["traced"]["metrics"], workload
    meta = json.loads((out / "meta.json").read_text())
    assert {"argv", "seed", "git_sha", "nproc", "loadavg_at_start", "python", "numpy"} <= set(meta)


def test_trace_files_parse_and_layers_stay_in_their_workloads(quick_run):
    out, _done, _elapsed = quick_run
    names = {}
    for workload in WORKLOADS:
        spans = list(read_jsonl(out / f"{workload}.trace.jsonl"))
        assert spans, workload
        for span in spans:
            assert span["end"] >= span["start"]
            assert span["parent"] < span["id"]
        names[workload] = {span["name"] for span in spans}
    multi_process = ("wire.", "store.", "executor.", "sharded.", "fleet.")
    for workload in ("steady_ingest", "operator_trickle"):
        assert not [n for n in names[workload] if n.startswith(multi_process)]
    assert "executor.drain_wait" in names["sharded_process"]
    assert "fleet.core_append" in names["fleet_tcp"]


def test_compare_accepts_a_run_against_itself(quick_run):
    out, _done, _elapsed = quick_run
    done = subprocess.run(
        [sys.executable, str(RULER / "compare.py"), str(out), str(out)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stdout
    rows = [line for line in done.stdout.splitlines() if "within bound" in line]
    assert len(rows) == len(WORKLOADS) * (len(DECLARED["end_to_end"]) + 1)


def test_workload_flag_runs_one_workload_alone(tmp_path):
    done = run_ruler(
        "--quick", "--workload", "steady_ingest", "--no-trace", "--out", str(tmp_path)
    )
    assert done.returncode == 0, done.stderr[-2000:]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert list(summary["workloads"]) == ["steady_ingest"]
    assert list(summary["workloads"]["steady_ingest"]) == ["end_to_end"]


def test_contract_mode_prints_one_result_line(tmp_path):
    done = run_ruler(
        "--quick", "--workload", "operator_trickle", "--seed", "3",
        "--seconds", "1", "--trace", "0", "--out", str(tmp_path),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    for spec in DECLARED["end_to_end"]:
        metric = line["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        RULER, tmp_path / "ruler", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [
            sys.executable, "ruler/run.py", "--workload", "steady_ingest",
            "--seed", "0", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_sigint_mid_workload_leaves_no_process_behind(tmp_path):
    ruler = subprocess.Popen(
        [
            sys.executable, str(RULER / "run.py"), "--workload", "sharded_process",
            "--seed", "0", "--no-trace", "--seconds", "30", "--out", str(tmp_path),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 20.0
        # wait until the workload child (and its shard workers) exist
        while len(processes_mentioning(str(tmp_path))) < 2:
            assert time.monotonic() < deadline and ruler.poll() is None
            time.sleep(0.05)
        time.sleep(1.0)
        ruler.send_signal(signal.SIGINT)
        assert ruler.wait(timeout=15) == 130
    finally:
        if ruler.poll() is None:
            ruler.kill()
            ruler.wait()
    deadline = time.monotonic() + 5.0
    while processes_mentioning(str(tmp_path)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not processes_mentioning(str(tmp_path))
