#!/usr/bin/env python3
"""Capacity-planning the deployment with the paper's theorems.

Before rolling 007 out, an operator wants to know (a) how many traceroutes per
second each host may send without exceeding the switches' ICMP budget
(Theorem 1) and (b) how much background noise the voting scheme tolerates while
still ranking genuinely bad links on top (Theorem 2), for datacenters of
different sizes.

Run with:  python examples/icmp_budget_planning.py
"""

from __future__ import annotations

from repro.theory.theorem1 import (
    level1_icmp_rate,
    level2_icmp_rate,
    traceroute_rate_bound,
)
from repro.theory.theorem2 import (
    error_probability_bound,
    max_detectable_bad_links,
    noise_tolerance_bound,
    retransmission_probability,
    theorem2_conditions_hold,
    vote_probability_bounds,
)
from repro.topology.clos import ClosParameters


def main() -> None:
    sizes = [
        ("small",  ClosParameters(npod=2, n0=20, n1=8, n2=8, hosts_per_tor=20)),
        ("medium", ClosParameters(npod=4, n0=48, n1=8, n2=16, hosts_per_tor=24)),
        ("large",  ClosParameters(npod=8, n0=48, n1=16, n2=16, hosts_per_tor=40)),
    ]
    tmax = 100
    bad_drop_rate = 5e-4       # 0.05%, the lowest rate the paper targets
    packets_lower, packets_upper = 50, 100
    num_bad_links = 10

    header = (
        f"{'fabric':8s} {'hosts':>8s} {'links':>8s} {'Ct (tr/s)':>10s} {'ICMP/s':>7s} "
        f"{'max k':>7s} {'regime':>7s} {'pg tolerance':>13s} {'err bound (N=2e7)':>18s}"
    )
    print(header)
    print("-" * len(header))
    for name, params in sizes:
        ct = traceroute_rate_bound(params, tmax=tmax)
        # the busiest switch's ICMP response rate when every host sends Ct
        icmp = max(level1_icmp_rate(params, ct), level2_icmp_rate(params, ct))
        k_max = max_detectable_bad_links(params)
        regime = "yes" if theorem2_conditions_hold(params, num_bad_links) else "no"
        pg = noise_tolerance_bound(
            params, bad_drop_rate, num_bad_links, packets_lower, packets_upper
        )
        # For the error bound use a *typical* production noise level (the paper
        # cites drop rates below 1e-8 on healthy links), not the worst case pg.
        rb = retransmission_probability(bad_drop_rate, packets_lower)
        rg = retransmission_probability(1e-8, packets_upper)
        vb, vg = vote_probability_bounds(params, rb, rg, num_bad_links)
        err = error_probability_bound(20_000_000, vote_prob_good=vg, vote_prob_bad=vb)
        print(
            f"{name:8s} {params.num_hosts:8d} {params.num_links:8d} {ct:10.2f} {icmp:7.1f} "
            f"{k_max:7.1f} {regime:>7s} {pg:13.2e} {err:18.2e}"
        )

    print(
        "\nReading the table: every host may start up to Ct traceroutes per second "
        f"without any switch exceeding {tmax} ICMP responses/s ('ICMP/s' is the "
        "busiest switch's rate at Ct); up to 'max k' simultaneously failed links "
        "are rankable; 'regime' says whether the fabric and k meet Theorem 2's "
        "structural conditions, without which its bounds do not apply; good links "
        "may drop up to 'pg tolerance' per packet before noise threatens the "
        "ranking; and the probability of mis-ranking decays to the quoted bound "
        "with twenty million monitored connections."
    )


if __name__ == "__main__":
    main()
