#!/usr/bin/env python3
"""Fleet-wide link health: multi-epoch aggregation (Section 8.3).

A lossy link is tracked across several epochs; the aggregator surfaces it as
a recurrent offender and reports the per-level breakdown operators use to
prioritise repairs.

Run with:  python examples/fleet_health.py
"""

from __future__ import annotations

from repro.core.aggregate import MultiEpochAggregator
from repro.core.pipeline import SystemConfig, Zero07System
from repro.netsim.failures import FailureInjector
from repro.netsim.links import LinkStateTable
from repro.netsim.traffic import UniformTraffic
from repro.topology.clos import ClosParameters, ClosTopology


def fleet_health(topology: ClosTopology) -> None:
    print("=== fleet-wide link health over a morning of epochs (Section 8.3) ===")
    link_table = LinkStateTable(topology, rng=9)
    injector = FailureInjector(topology, link_table, rng=9)
    scenario = injector.inject_random_failures(2, drop_rate_range=(2e-3, 8e-3))
    for link in scenario.bad_links:
        print(f"injected failure: {link} at {scenario.drop_rates[link]:.2%}")

    traffic = UniformTraffic(topology, connections_per_host=40, packets_per_flow=100)
    system = Zero07System(topology, traffic, link_table, SystemConfig(), rng=13)
    aggregator = MultiEpochAggregator(topology=topology)
    for epoch in range(6):
        _, report = system.run_epoch(epoch)
        aggregator.ingest(report)

    mean_detections, std_detections = aggregator.detections_per_epoch()
    print(f"\nlinks flagged per epoch: {mean_detections:.2f} +/- {std_detections:.2f}")
    print("recurrent offenders (detected in >= 3 epochs):")
    for record in aggregator.recurrent_offenders(min_epochs_detected=3):
        marker = "  <-- injected failure" if record.link in set(scenario.bad_links) else ""
        print(
            f"  {record.link}: detected in {record.epochs_detected}/6 epochs, "
            f"avg {record.mean_votes_when_voted:.1f} votes{marker}"
        )
    print("detection breakdown by link level:", aggregator.detection_breakdown_by_level())


def main() -> None:
    topology = ClosTopology(ClosParameters(npod=2, n0=8, n1=4, n2=4, hosts_per_tor=3))
    fleet_health(topology)


if __name__ == "__main__":
    main()
