#!/usr/bin/env python3
"""Compare two ruler results against the bounds in ``BENCHMARK.json``.

    python3 ruler/compare.py A B

``A`` (the parent) and ``B`` (the change) are each a result directory written
by ``ruler/run.py`` (it holds ``summary.json``), a directory of such
directories, or a comma-separated list of them — one run or a set of runs per
side.  One row is printed per (end-to-end metric, workload):

* ``better`` — every run of B reads better than every run of A;
* ``within bound`` — B's median is no worse than A's by more than the bound;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread (distance between the quartiles as
  a share of the median, on either side) is wider than the bound, and the
  runs overlap: the ruler cannot tell.

``failed_ops_share`` has no bound: any increase is ``worse``.  The exit status
is 1 if any row is ``worse``, else 0 — so an A/A comparison of the same code
must exit 0, and a later change's before/after table is this output.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_side(spec: str) -> List[Dict]:
    """Every ``summary.json`` named by one side's argument."""
    summaries = []
    for part in spec.split(","):
        path = Path(part)
        if (path / "summary.json").is_file():
            files = [path / "summary.json"]
        else:
            files = sorted(path.glob("*/summary.json"))
        if not files:
            raise SystemExit(f"compare: no summary.json under {path}")
        summaries.extend(json.loads(file.read_text()) for file in files)
    return summaries


def metric_values(summaries: List[Dict], workload: str, metric: str) -> List[float]:
    values = []
    for summary in summaries:
        result = summary["workloads"].get(workload, {}).get("end_to_end")
        if result and metric in result["metrics"]:
            values.append(float(result["metrics"][metric]["value"]))
    return values


def failed_share(summaries: List[Dict], workload: str) -> Optional[float]:
    shares = []
    for summary in summaries:
        result = summary["workloads"].get(workload, {}).get("end_to_end")
        if result:
            shares.append(result["failed"] / max(result["attempted"], 1))
    return max(shares) if shares else None


def spread(values: List[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median (needs >= 4 runs)."""
    if len(values) < 4:
        return None
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(middle) if middle else None


def verdict(
    a: List[float], b: List[float], better: str, bound: float
) -> Tuple[str, float, Optional[float]]:
    """``(verdict, worsening share, widest spread)`` for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worsening = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    widest = max(spreads) if spreads else None
    if better == "lower":
        all_better = max(b) < min(a)
        all_worse = min(b) > max(a) * (1.0 + bound)
    else:
        all_better = min(b) > max(a)
        all_worse = max(b) < min(a) * (1.0 - bound)
    if widest is not None and widest > bound:
        if all_better:
            return "better", worsening, widest
        if all_worse:
            return "worse", worsening, widest
        return "unresolved", worsening, widest
    if worsening > bound:
        return "worse", worsening, widest
    if all_better and len(a) > 1 and len(b) > 1:
        return "better", worsening, widest
    return "within bound", worsening, widest


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    side_a, side_b = load_side(argv[0]), load_side(argv[1])
    print(
        f"{'workload':<18} {'metric':<26} {'A median':>13} {'B median':>13} "
        f"{'worse by':>9} {'bound':>6} {'spread':>7}  verdict  (runs A/B)"
    )
    any_worse = False
    # the declared workloads, then any other a result holds (sharded_process)
    workloads = [w["name"] for w in declared["workloads"]]
    for summary in side_a + side_b:
        workloads.extend(name for name in summary["workloads"] if name not in workloads)
    for workload in workloads:
        for spec in declared["end_to_end"]:
            a = metric_values(side_a, workload, spec["name"])
            b = metric_values(side_b, workload, spec["name"])
            if not a or not b:
                print(f"{workload:<18} {spec['name']:<26} {'-':>13} {'-':>13}   missing on one side")
                any_worse = True
                continue
            word, worsening, widest = verdict(a, b, spec["better"], spec["bound"])
            any_worse = any_worse or word == "worse"
            shown = "-" if widest is None else f"{widest:.1%}"
            print(
                f"{workload:<18} {spec['name']:<26} {statistics.median(a):>13.6g} "
                f"{statistics.median(b):>13.6g} {worsening:>+9.1%} "
                f"{spec['bound']:>6.0%} {shown:>7}  {word}  ({len(a)}/{len(b)})"
            )
        share_a, share_b = failed_share(side_a, workload), failed_share(side_b, workload)
        if share_a is not None and share_b is not None:
            word = "worse" if share_b > share_a else "within bound"
            any_worse = any_worse or word == "worse"
            print(
                f"{workload:<18} {'failed_ops_share':<26} {share_a:>13.6g} "
                f"{share_b:>13.6g} {'':>9} {'any':>6} {'':>7}  {word}"
            )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
