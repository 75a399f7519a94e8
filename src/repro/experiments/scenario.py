"""The shared scenario runner used by (almost) every experiment.

A *scenario* is: a Clos topology, a traffic pattern, an injected failure set,
and a number of epochs of the full 007 pipeline.  The runner returns both the
simulator ground truth and 007's per-epoch reports, and knows how to score
007 and the optimization baselines against that ground truth the way the
paper's evaluation section does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Literal, Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines.binary_program import solve_binary_program
from repro.baselines.integer_program import IntegerProgramResult, solve_integer_program
from repro.core.analysis import EngineKind, EpochReport
from repro.core.blame import BlameConfig
from repro.core.pipeline import SystemConfig, Zero07System
from repro.core.votes import VotePolicy
from repro.metrics.evaluation import (
    DetectionScore,
    detection_precision_recall,
    false_alarm_rate_after_clear,
    mean_time_to_detection,
    per_epoch_detection,
    per_flow_accuracy,
    time_to_detection,
)
from repro.netsim.failures import FailureInjector, FailureScenario
from repro.netsim.links import LinkStateTable
from repro.netsim.script import ScenarioScript
from repro.netsim.simulator import EpochResult, SimulationConfig
from repro.netsim.traffic import TrafficGenerator, TrafficKind, traffic_generator
from repro.routing.routing_matrix import build_routing_matrix
from repro.topology.clos import ClosParameters, ClosTopology
from repro.topology.elements import DirectedLink, LinkLevel
from repro.util.jsonable import from_json, to_json
from repro.util.rng import spawn_rng

FailureKind = Literal["random", "skewed", "level", "none"]


@dataclass
class ScenarioConfig:
    """Everything needed to run one 007 scenario end to end."""

    # topology -----------------------------------------------------------
    npod: int = 2
    n0: int = 10
    n1: int = 4
    n2: int = 4
    hosts_per_tor: int = 3

    # traffic ------------------------------------------------------------
    traffic: TrafficKind = "uniform"
    connections_per_host: Union[int, Tuple[int, int]] = 40
    packets_per_flow: Union[int, Tuple[int, int]] = 100
    #: skewed-traffic parameters (Section 6.5)
    num_hot_tors: int = 3
    hot_fraction: float = 0.8
    #: hot-ToR skew (Figure 9)
    hot_tor_skew: float = 0.5

    # failures -----------------------------------------------------------
    failure_kind: FailureKind = "random"
    num_bad_links: int = 1
    drop_rate_range: Tuple[float, float] = (5e-4, 1e-2)
    noise_range: Tuple[float, float] = (0.0, 1e-6)
    failure_levels: Optional[Sequence[LinkLevel]] = (LinkLevel.LEVEL1, LinkLevel.LEVEL2)
    #: Figure 11 single-level failure placement
    failure_level: LinkLevel = LinkLevel.LEVEL1
    failure_downward: bool = False
    #: Figure 12 skewed drop rates
    dominant_drop_rate_range: Tuple[float, float] = (0.1, 1.0)
    minor_drop_rate_range: Tuple[float, float] = (1e-4, 1e-3)

    #: optional time-varying timeline (flaps, bursts, reboots, drains,
    #: linecard failures, fabric expansions, traffic shifts) applied on top
    #: of the static ``failure_kind`` injection; makes the ground truth vary
    #: per epoch.
    script: Optional[ScenarioScript] = None

    # run ----------------------------------------------------------------
    epochs: int = 1
    seed: int = 0
    use_slb: bool = True
    #: analysis engine ("arrays" = vectorized default, "dicts" = reference).
    engine: EngineKind = "arrays"
    vote_policy: VotePolicy = "inverse_hops"
    blame: BlameConfig = field(default_factory=BlameConfig)
    simulate_setup_failures: bool = False
    storage_flow_fraction: float = 0.0

    def topology_params(self) -> ClosParameters:
        """The Clos sizing of this scenario."""
        return ClosParameters(
            npod=self.npod,
            n0=self.n0,
            n1=self.n1,
            n2=self.n2,
            hosts_per_tor=self.hosts_per_tor,
        )

    # ------------------------------------------------------------------
    # serialization: scenarios as shareable JSON files
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """The config as JSON-ready primitives (:mod:`repro.util.jsonable`).

        ``repro-007 scenario --dump-config`` writes this; ``--config`` reads
        it back, so whole scenarios travel as ``*.json`` files.
        """
        return to_json(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "ScenarioConfig":
        """Rebuild a config from :meth:`to_dict` output (faults raise ``ValueError``)."""
        return from_json(cls, data)


@dataclass
class ScenarioResult:
    """Output of one scenario run: ground truth plus 007's reports."""

    config: ScenarioConfig
    topology: ClosTopology
    failure_scenario: FailureScenario
    epoch_results: List[EpochResult]
    reports: List[EpochReport]
    system: Zero07System
    #: ground truth live during each epoch (static injections plus whatever
    #: scripted transients were active).  Indexed like ``reports``; empty only
    #: when a result was constructed by hand without per-epoch snapshots.
    truth_by_epoch: List[FailureScenario] = field(default_factory=list)

    # ------------------------------------------------------------------
    # ground truth helpers
    # ------------------------------------------------------------------
    def true_bad_links(self) -> List[DirectedLink]:
        """The statically injected failed directed links."""
        return list(self.failure_scenario.bad_links)

    def truth_for_epoch(self, epoch_index: int = 0) -> FailureScenario:
        """The failure ground truth that was live during one epoch."""
        if self.truth_by_epoch:
            return self.truth_by_epoch[epoch_index]
        return self.failure_scenario

    def true_flow_causes(self, epoch_index: int = 0) -> Dict[int, Optional[DirectedLink]]:
        """Ground-truth culprit per flow with retransmissions in an epoch."""
        epoch = self.epoch_results[epoch_index]
        return {
            flow.flow_id: flow.true_drop_link()
            for flow in epoch.flows
            if flow.has_retransmission
        }

    def flows_through_bad_links(self, epoch_index: int = 0) -> List[int]:
        """IDs of flows (with retransmissions) whose drops hit an injected failure."""
        bad = set(self.truth_for_epoch(epoch_index).bad_links)
        epoch = self.epoch_results[epoch_index]
        return [
            flow.flow_id
            for flow in epoch.flows
            if flow.has_retransmission and flow.true_drop_link() in bad
        ]

    # ------------------------------------------------------------------
    # scoring 007
    # ------------------------------------------------------------------
    def accuracy_007(self, epoch_index: int = 0) -> float:
        """Per-connection accuracy of 007 (Section 6's headline metric)."""
        report = self.reports[epoch_index]
        return per_flow_accuracy(
            report.flow_causes,
            self.true_flow_causes(epoch_index),
            restrict_to=self.flows_through_bad_links(epoch_index),
        )

    def detection_007(self, epoch_index: int = 0) -> DetectionScore:
        """Precision/recall of Algorithm 1 against that epoch's ground truth."""
        report = self.reports[epoch_index]
        return detection_precision_recall(
            report.detected_links, self.truth_for_epoch(epoch_index).bad_links
        )

    # ------------------------------------------------------------------
    # time-aware scoring (dynamic scenarios)
    # ------------------------------------------------------------------
    def detected_by_epoch(self) -> List[List[DirectedLink]]:
        """The links 007 flagged, one list per epoch."""
        return [list(report.detected_links) for report in self.reports]

    def _truth_links_by_epoch(self) -> List[List[DirectedLink]]:
        return [
            list(self.truth_for_epoch(i).bad_links) for i in range(len(self.reports))
        ]

    def per_epoch_detection_007(self) -> List[DetectionScore]:
        """Algorithm 1 precision/recall per epoch against per-epoch truth."""
        return per_epoch_detection(self.detected_by_epoch(), self._truth_links_by_epoch())

    def time_to_detection_007(self) -> Dict[DirectedLink, Optional[int]]:
        """Epochs from each failure's onset to its first in-window detection."""
        return time_to_detection(self.detected_by_epoch(), self._truth_links_by_epoch())

    def mean_time_to_detection_007(self) -> float:
        """Mean detection latency in epochs (``nan`` when nothing was detected)."""
        return mean_time_to_detection(
            self.detected_by_epoch(), self._truth_links_by_epoch()
        )

    def false_alarm_rate_007(self, include_gaps: bool = False) -> float:
        """Rate of stale detections after failures cleared (``nan`` if none cleared).

        See :func:`repro.metrics.evaluation.false_alarm_rate_after_clear`
        for the ``include_gaps`` semantics on flapping truth.
        """
        return false_alarm_rate_after_clear(
            self.detected_by_epoch(),
            self._truth_links_by_epoch(),
            include_gaps=include_gaps,
        )

    # ------------------------------------------------------------------
    # scoring the optimization baselines
    # ------------------------------------------------------------------
    def _discovered_paths(self, epoch_index: int):
        report = self.reports[epoch_index]
        return [c for c in report.tally.contributions]

    def baseline_inputs(self, epoch_index: int = 0):
        """Routing matrix + retransmission counts from the same evidence 007 used."""
        contributions = self._discovered_paths(epoch_index)
        link_lists = [list(c.links) for c in contributions if c.links]
        flow_ids = [c.flow_id for c in contributions if c.links]
        counts = [c.retransmissions for c in contributions if c.links]
        routing = build_routing_matrix(link_lists, flow_ids=flow_ids)
        return routing, counts

    def binary_program_detection(self, epoch_index: int = 0, exact: Optional[bool] = None) -> DetectionScore:
        """Precision/recall of the binary program (eq. 3)."""
        routing, _ = self.baseline_inputs(epoch_index)
        result = solve_binary_program(routing, exact=exact)
        return detection_precision_recall(
            result.blamed_links, self.failure_scenario.bad_links
        )

    def integer_program_result(self, epoch_index: int = 0, exact: Optional[bool] = None) -> IntegerProgramResult:
        """Raw solution of the integer program (eq. 4)."""
        routing, counts = self.baseline_inputs(epoch_index)
        return solve_integer_program(routing, counts, exact=exact)

    def integer_program_detection(self, epoch_index: int = 0, exact: Optional[bool] = None) -> DetectionScore:
        """Precision/recall of the integer program (eq. 4)."""
        result = self.integer_program_result(epoch_index, exact=exact)
        return detection_precision_recall(
            result.blamed_links, self.failure_scenario.bad_links
        )

    def accuracy_integer_program(self, epoch_index: int = 0, exact: Optional[bool] = None) -> float:
        """Per-connection accuracy of the integer program's ranking."""
        result = self.integer_program_result(epoch_index, exact=exact)
        counts = result.drop_counts
        predicted: Dict[int, DirectedLink] = {}
        for contribution in self._discovered_paths(epoch_index):
            if not contribution.links:
                continue
            best = max(
                sorted(contribution.links), key=lambda link: counts.get(link, 0.0)
            )
            predicted[contribution.flow_id] = best
        return per_flow_accuracy(
            predicted,
            self.true_flow_causes(epoch_index),
            restrict_to=self.flows_through_bad_links(epoch_index),
        )


# ----------------------------------------------------------------------
def build_traffic(config: ScenarioConfig, topology: ClosTopology) -> TrafficGenerator:
    """Instantiate the traffic generator described by ``config``."""
    return traffic_generator(
        topology, config, config.connections_per_host, config.packets_per_flow
    )


def inject_failures(
    config: ScenarioConfig, topology: ClosTopology, link_table: LinkStateTable, seed: int
) -> FailureScenario:
    """Inject the failure pattern described by ``config``."""
    injector = FailureInjector(topology, link_table, rng=spawn_rng(seed, 77))
    if config.failure_kind == "none" or config.num_bad_links == 0:
        return FailureScenario()
    if config.failure_kind == "random":
        return injector.inject_random_failures(
            config.num_bad_links,
            drop_rate_range=config.drop_rate_range,
            levels=config.failure_levels,
        )
    if config.failure_kind == "skewed":
        return injector.inject_skewed_failures(
            config.num_bad_links,
            dominant_range=config.dominant_drop_rate_range,
            minor_range=config.minor_drop_rate_range,
            levels=config.failure_levels,
        )
    if config.failure_kind == "level":
        return injector.inject_failure_on_level(
            config.failure_level,
            drop_rate=float(np.mean(config.drop_rate_range)),
            downward=config.failure_downward,
        )
    raise ValueError(f"unknown failure kind {config.failure_kind!r}")


def build_system(
    config: ScenarioConfig, sinks: Sequence = ()
) -> Tuple[Zero07System, FailureScenario]:
    """Build the ready-to-run system (and injected truth) of a scenario."""
    topology = ClosTopology(config.topology_params())
    link_table = LinkStateTable(
        topology,
        noise_low=config.noise_range[0],
        noise_high=config.noise_range[1],
        rng=spawn_rng(config.seed, 1),
    )
    failure_scenario = inject_failures(config, topology, link_table, config.seed)
    traffic = build_traffic(config, topology)

    system_config = SystemConfig(
        blame=config.blame,
        vote_policy=config.vote_policy,
        use_slb=config.use_slb,
        engine=config.engine,
        # The paper's simulation study treats path discovery as reliable (the
        # probes "do not need to be dropped for 007 to operate", Section 4):
        # probes are lost only on fully blackholed links.  Lossy-probe mode is
        # still available through SystemConfig for robustness experiments.
        traceroute_probe_loss=False,
        simulation=SimulationConfig(
            simulate_setup_failures=config.simulate_setup_failures
        ),
    )
    system = Zero07System(
        topology=topology,
        traffic=traffic,
        link_table=link_table,
        config=system_config,
        rng=config.seed,
        script=config.script,
        sinks=sinks,
    )
    return system, failure_scenario


def stream_scenario(
    config: ScenarioConfig, sinks: Sequence = ()
) -> Iterator[Tuple[EpochResult, EpochReport, FailureScenario]]:
    """Stream a scenario epoch by epoch without accumulating results.

    Yields ``(epoch_result, report, truth)`` per epoch — the streaming
    alternative to :func:`run_scenario` for long dynamic scenarios where
    holding O(epochs) simulation results is not an option.  Report sinks fire
    as each epoch finalizes.
    """
    system, _ = build_system(config, sinks=sinks)
    for epoch_result, report in system.iter_epochs(config.epochs):
        yield epoch_result, report, system.ground_truth(report.epoch)


def run_scenario(config: ScenarioConfig, sinks: Sequence = ()) -> ScenarioResult:
    """Run one full scenario: build, inject, simulate, analyse.

    ``sinks`` (:class:`~repro.api.service.ReportSink` observers) are notified
    with every finalized epoch report as the scenario streams through the
    analysis service.
    """
    system, failure_scenario = build_system(config, sinks=sinks)
    epoch_results: List[EpochResult] = []
    reports: List[EpochReport] = []
    truth_by_epoch: List[FailureScenario] = []
    for epoch_result, report in system.iter_epochs(config.epochs):
        epoch_results.append(epoch_result)
        reports.append(report)
        truth_by_epoch.append(system.ground_truth(epoch_result.epoch))
    return ScenarioResult(
        config=config,
        topology=system.topology,
        failure_scenario=failure_scenario,
        epoch_results=epoch_results,
        reports=reports,
        system=system,
        truth_by_epoch=truth_by_epoch,
    )
