#!/usr/bin/env python3
"""The ruler: the repo's benchmark, one command.

Two ways in:

* **benchmark contract** — ``python3 ruler/run.py --workload NAME --seed N
  --seconds S --trace 0|1`` runs one workload once and prints, as the last
  line of stdout, ``{"correct", "attempted", "failed", "metrics"}`` with
  every end-to-end metric (``--trace 0``) or every per-layer metric
  (``--trace 1``) declared in ``BENCHMARK.json``.
* **the whole ruler** — ``python3 ruler/run.py --seed 0`` (no ``--trace``)
  runs all four workloads (or the one named by ``--workload``), each in a
  fresh subprocess, untraced then traced, prints every metric by name with
  its unit, and leaves ``meta.json`` + ``summary.json`` + the trace files in
  ``--out``.

Either way every workload runs in a supervised child: its own session, a hard
timeout with process-group kill, and a check afterwards that nothing it
started survived.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_HERE = Path(__file__).resolve().parent
# ``ruler/trace.py`` must not shadow the stdlib ``trace`` module: drop the
# script directory from the path and import the ruler as a package instead.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != _HERE]
sys.path.insert(0, str(_HERE.parent))

from ruler import harness  # noqa: E402

#: the contract gives one run 180 s; leave room to report a timeout cleanly.
HARD_TIMEOUT_S = 165.0


# ----------------------------------------------------------------------
# the child: one workload, in-process
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    harness.bootstrap_src()
    out_dir = Path(args.out)
    tmp_dir = out_dir / f"tmp-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    run = harness.Run(
        args.workload,
        args.seed,
        float(args.seconds),
        bool(args.trace),
        args.quick,
        out_dir,
        tmp_dir,
    )
    started = time.perf_counter()
    try:
        if args.workload in ("steady_ingest", "sharded_process"):
            from ruler import batch as module
        elif args.workload == "operator_trickle":
            from ruler import trickle as module
        else:
            from ruler import fleet as module
        module.run_workload(run)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        if run.trace:
            run.tracer.write_jsonl(out_dir / f"{args.workload}.trace.jsonl")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "quick": args.quick,
        "wall_s": time.perf_counter() - started,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "metrics": {
            name: {"value": value, "n": run.sample_counts.get(name, 1)}
            for name, value in run.values.items()
        },
        "samples": run.samples,
    }
    path = result_path(out_dir, args.workload, int(args.trace))
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(result))
    os.replace(tmp, path)
    return 0


def result_path(out_dir: Path, workload: str, trace: int) -> Path:
    return out_dir / f"{workload}.t{trace}.result.json"


# ----------------------------------------------------------------------
# the supervisor
# ----------------------------------------------------------------------
def session_members(sid: int) -> List[int]:
    """Live processes whose session id is ``sid`` (Linux ``/proc``)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = harness.proc_stat_fields(entry)
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry))
    return members


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def supervise(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    quick: bool,
    out_dir: Path,
) -> Dict:
    """Run one workload in a child session; always return a result dict.

    A child that crashes or outlives the hard timeout does not vanish: the
    operations it had planned but not completed are reported as failed.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    path = result_path(out_dir, workload, trace)
    progress = out_dir / f"{workload}.progress.json"
    for stale in (path, progress):
        stale.unlink(missing_ok=True)
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
        "--out",
        str(out_dir),
    ]
    if quick:
        command.append("--quick")
    child = subprocess.Popen(command, stdout=sys.stderr, start_new_session=True)
    status = "ok"
    try:
        child.wait(timeout=HARD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        status = f"timed out after {HARD_TIMEOUT_S:.0f} s"
    except BaseException:  # SIGINT/SIGTERM: take the whole session down
        kill_group(child.pid)
        child.wait()
        raise
    orphans = session_members(child.pid) if child.poll() is not None else []
    kill_group(child.pid)
    child.wait()
    for _ in range(50):
        if not session_members(child.pid):
            break
        time.sleep(0.02)
    shutil.rmtree(out_dir / f"tmp-{child.pid}", ignore_errors=True)
    if status == "ok" and child.returncode != 0:
        status = f"exited with status {child.returncode}"
    if status == "ok" and orphans:
        status = f"left {len(orphans)} process(es) behind: {orphans}"
    if status == "ok" and path.is_file():
        result = json.loads(path.read_text())
        result["status"] = "ok"
        return result
    tally = {"attempted": 0, "failed": 0, "planned_min": 1}
    if progress.is_file():
        tally.update(json.loads(progress.read_text()))
    attempted = max(tally["attempted"], tally["planned_min"], 1)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "quick": quick,
        "status": status,
        "attempted": attempted,
        "failed": tally["failed"] + attempted - tally["attempted"],
        "failures": [status],
        "metrics": {},
        "samples": {},
    }


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def declared_metrics(declared: Dict, trace: int) -> List[Dict]:
    return declared["per_layer" if trace else "end_to_end"]


def contract_line(result: Dict, declared: Dict) -> Tuple[Dict, List[str]]:
    """The last stdout line the benchmark driver parses, and what is missing."""
    trace = int(result["trace"])
    metrics = {}
    missing = []
    for spec in declared_metrics(declared, trace):
        entry = result["metrics"].get(spec["name"])
        if entry is None:
            if trace:  # a layer this workload does not run did no work
                entry = {"value": 0.0}
            else:
                missing.append(spec["name"])
                continue
        metrics[spec["name"]] = {"value": entry["value"], "unit": spec["unit"]}
    return {
        "correct": result["status"] == "ok" and result["failed"] == 0 and not missing,
        "attempted": max(int(result["attempted"]), 1),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }, missing


def print_table(result: Dict, declared: Dict, stream) -> None:
    trace = int(result["trace"])
    kind = "per-layer (traced)" if trace else "end-to-end (untraced)"
    print(f"== {result['workload']} · {kind} · seed {result['seed']} ==", file=stream)
    for spec in declared_metrics(declared, trace):
        entry = result["metrics"].get(spec["name"])
        if entry is None:
            if not trace:
                print(f"{spec['name']:<36} {'MISSING':>16}", file=stream)
                continue
            entry = {"value": 0.0, "n": 0}
        print(
            f"{spec['name']:<36} {entry['value']:>16.6g} {spec['unit']:<12} "
            f"n={entry.get('n', 1)}",
            file=stream,
        )
    share = result["failed"] / max(result["attempted"], 1)
    print(
        f"{'failed_ops_share':<36} {share:>16.6g} {'ratio':<12} "
        f"n={result['attempted']}",
        file=stream,
    )
    if result["status"] != "ok":
        print(f"!! {result['workload']}: {result['status']}", file=stream)
    for failure in result.get("failures", [])[:5]:
        print(f"!! failed: {failure}", file=stream)


def git_sha() -> str:
    """HEAD's sha without spawning git (the driver's checkout has no repo)."""
    git_dir = harness.REPO_ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git_dir / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts(argv: List[str], seed: int) -> Dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "argv": argv,
        "seed": seed,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "started_unix": time.time(),
    }


def warn_if_noisy() -> None:
    load = os.getloadavg()[0]
    cores = os.cpu_count() or 1
    if load > cores / 2:
        print(
            f"ruler: noisy host — 1-min load average {load:.2f} exceeds "
            f"nproc/2 = {cores / 2:.1f}; timings will be wider than the bounds",
            file=sys.stderr,
        )


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def contract_main(args: argparse.Namespace, declared: Dict) -> int:
    result = supervise(
        args.workload,
        args.seed,
        float(args.seconds),
        int(args.trace),
        args.quick,
        Path(args.out),
    )
    print_table(result, declared, sys.stderr)
    if result["status"] != "ok":
        return 1
    line, missing = contract_line(result, declared)
    if missing:
        print(f"ruler: metrics not produced: {missing}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


def ruler_main(args: argparse.Namespace, declared: Dict, argv: List[str]) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = host_facts(argv, args.seed)
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    seconds = args.seconds
    if seconds is None:
        seconds = 1 if args.quick else declared["run_seconds"]
    names = [args.workload] if args.workload else list(harness.WORKLOADS)
    summary: Dict = {"meta": meta, "quick": args.quick, "workloads": {}}
    bad = False
    for workload in names:
        entry: Dict = {}
        for trace in (0,) if args.no_trace else (0, 1):
            result = supervise(
                workload, args.seed, float(seconds), trace, args.quick, out_dir
            )
            print_table(result, declared, sys.stdout)
            sys.stdout.flush()
            units = {m["name"]: m["unit"] for m in declared_metrics(declared, trace)}
            for name, metric in result["metrics"].items():
                metric["unit"] = units.get(name, "")
            entry["traced" if trace else "end_to_end"] = result
            bad = bad or result["status"] != "ok" or result["failed"] > 0
        summary["workloads"][workload] = entry
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"ruler: results in {out_dir}", file=sys.stderr)
    return 1 if bad else 0


def _interrupt(signum, frame) -> None:
    """SIGTERM ends the run like SIGINT: the supervisor kills its child session."""
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None, help="length of the measuring window"
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=None,
        help="benchmark-contract mode: one workload, one run, JSON last line",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny fabric, 2 epochs x 2000 events, one pass per phase",
    )
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--out", default=str(_HERE / "out"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args)
    harness.bootstrap_src()
    declared = harness.declarations()
    warn_if_noisy()
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        if args.trace is not None:
            if args.workload is None or args.seconds is None:
                parser.error("--trace needs --workload and --seconds")
            return contract_main(args, declared)
        return ruler_main(args, declared, argv)
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
