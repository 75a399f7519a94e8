"""Failure injection: random link failures, level-targeted failures, switch
failures, transient congestion bursts, link flaps and the VM-reboot model of
Section 8.3 / Appendix A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.netsim.flows import FlowRecord
from repro.netsim.links import LinkStateTable
from repro.topology.clos import ClosTopology
from repro.topology.elements import DirectedLink, Link, LinkLevel
from repro.util.rng import RngLike, ensure_rng


@dataclass
class FailureScenario:
    """Ground truth of an injected failure scenario."""

    bad_links: List[DirectedLink] = field(default_factory=list)
    drop_rates: Dict[DirectedLink, float] = field(default_factory=dict)

    @property
    def num_failures(self) -> int:
        """Number of failed directed links."""
        return len(self.bad_links)


class FailureInjector:
    """Injects failures into a :class:`LinkStateTable` over a Clos topology."""

    #: link levels eligible for random failures by default (the paper injects
    #: failures on fabric links and also observes host-ToR failures in
    #: production; tier-3 is excluded since only ~2% of flows traverse it).
    DEFAULT_LEVELS: Tuple[LinkLevel, ...] = (
        LinkLevel.HOST,
        LinkLevel.LEVEL1,
        LinkLevel.LEVEL2,
    )

    def __init__(
        self,
        topology: ClosTopology,
        link_table: LinkStateTable,
        rng: RngLike = 0,
    ) -> None:
        self._topology = topology
        self._link_table = link_table
        self._rng = ensure_rng(rng)

    # ------------------------------------------------------------------
    def inject_random_failures(
        self,
        num_failures: int,
        drop_rate_range: Tuple[float, float] = (1e-4, 1e-2),
        levels: Optional[Sequence[LinkLevel]] = None,
        symmetric: bool = False,
    ) -> FailureScenario:
        """Fail ``num_failures`` random directed links on the given levels.

        Drop rates are drawn uniformly from ``drop_rate_range`` — the paper's
        default is (0.01%, 1%).
        """
        levels = tuple(levels) if levels is not None else self.DEFAULT_LEVELS
        candidates: List[DirectedLink] = []
        for level in levels:
            for link in self._topology.links_of_level(level):
                candidates.extend(link.directions())
        if num_failures > len(candidates):
            raise ValueError(
                f"cannot fail {num_failures} links, only {len(candidates)} candidates"
            )
        chosen_idx = self._rng.choice(len(candidates), size=num_failures, replace=False)
        scenario = FailureScenario()
        for idx in sorted(int(i) for i in chosen_idx):
            link = candidates[idx]
            rate = float(self._rng.uniform(*drop_rate_range))
            self._link_table.inject_failure(link, rate, symmetric=symmetric)
            scenario.bad_links.append(link)
            scenario.drop_rates[link] = rate
        return scenario

    def inject_failure_on_level(
        self,
        level: LinkLevel,
        drop_rate: float,
        downward: bool = False,
        index: int = 0,
    ) -> FailureScenario:
        """Fail one specific link of ``level`` (Figure 11's location study).

        ``downward=False`` fails the "upward" direction (e.g. ToR->T1);
        ``downward=True`` fails the reverse (e.g. T1->ToR).  ``index`` selects
        which physical link of that level to fail.
        """
        links = self._topology.links_of_level(level)
        if not links:
            raise ValueError(f"topology has no links of level {level!r}")
        physical = links[index % len(links)]
        upward, downward_dir = self._oriented(physical)
        target = downward_dir if downward else upward
        self._link_table.inject_failure(target, drop_rate)
        return FailureScenario(bad_links=[target], drop_rates={target: drop_rate})

    def inject_skewed_failures(
        self,
        num_failures: int,
        dominant_range: Tuple[float, float] = (0.1, 1.0),
        minor_range: Tuple[float, float] = (1e-4, 1e-3),
        levels: Optional[Sequence[LinkLevel]] = None,
    ) -> FailureScenario:
        """Figure 12's heavily skewed scenario: one dominant failure, the rest minor."""
        scenario = self.inject_random_failures(
            num_failures, drop_rate_range=minor_range, levels=levels
        )
        if scenario.bad_links:
            dominant = scenario.bad_links[0]
            rate = float(self._rng.uniform(*dominant_range))
            self._link_table.inject_failure(dominant, rate)
            scenario.drop_rates[dominant] = rate
        return scenario

    # ------------------------------------------------------------------
    def _oriented(self, physical: Link) -> Tuple[DirectedLink, DirectedLink]:
        """Return (upward, downward) directions of a physical link.

        "Upward" means from the lower tier toward the higher tier (host->ToR,
        ToR->T1, T1->T2).
        """
        a, b = physical.a, physical.b
        rank_a = self._tier_rank(a)
        rank_b = self._tier_rank(b)
        if rank_a <= rank_b:
            return DirectedLink(a, b), DirectedLink(b, a)
        return DirectedLink(b, a), DirectedLink(a, b)

    def _tier_rank(self, node: str) -> int:
        if self._topology.is_host(node):
            return -1
        return int(self._topology.switch(node).tier)


@dataclass
class TransientFailure:
    """A failure active only for a window of epochs (link flap / congestion burst).

    ``blackhole=True`` takes the physical link fully down while active (drops
    traceroute probes too), modelling an operator drain or a dead cable rather
    than a lossy one.
    """

    link: DirectedLink
    drop_rate: float
    start_epoch: int
    duration_epochs: int
    blackhole: bool = False

    @property
    def end_epoch(self) -> int:
        """First epoch after the failure has cleared."""
        return self.start_epoch + self.duration_epochs

    def active(self, epoch: int) -> bool:
        """True when the failure is active during ``epoch``."""
        return self.start_epoch <= epoch < self.start_epoch + self.duration_epochs


class TransientFailureSchedule:
    """Applies/clears transient failures as epochs advance.

    Transients compose with pre-existing (static) failures: before overriding
    a link the schedule captures the link's baseline state — injected drop
    rate and down-ness, for *both* directions, since
    :meth:`LinkStateTable.clear_failure` resets the whole physical link — and
    restores it once every transient touching the physical link has cleared.
    When several active transients target the same directed link in one
    epoch, the most severe wins (blackhole first, then highest drop rate),
    and the returned scenario reports the rate actually in effect.
    """

    def __init__(self, link_table: LinkStateTable) -> None:
        self._link_table = link_table
        self._failures: List[TransientFailure] = []
        self._currently_active: Set[DirectedLink] = set()
        #: pre-transient injected drop rate per direction (``None`` = the
        #: direction carried no injected failure, just noise).
        self._baseline_rate: Dict[DirectedLink, Optional[float]] = {}
        #: pre-transient down-ness per physical link (doubles as the marker
        #: that a baseline was captured for that physical).
        self._baseline_down: Dict[Link, bool] = {}

    def add(self, failure: TransientFailure) -> None:
        """Register a transient failure."""
        self._failures.append(failure)

    @property
    def failures(self) -> List[TransientFailure]:
        """The registered transient failures (in registration order)."""
        return list(self._failures)

    @property
    def horizon(self) -> int:
        """First epoch at which every registered failure has cleared."""
        return max((f.end_epoch for f in self._failures), default=0)

    def active_at(self, epoch: int) -> List[TransientFailure]:
        """The failures active during ``epoch`` (registration order)."""
        return [f for f in self._failures if f.active(epoch)]

    # ------------------------------------------------------------------
    def _capture_baseline(self, link: DirectedLink) -> None:
        """Remember the pre-transient state of ``link``'s physical link."""
        physical = link.undirected()
        if physical in self._baseline_down:
            return  # already captured while another transient was active
        self._baseline_down[physical] = self._link_table.is_down(physical)
        for direction in physical.directions():
            self._baseline_rate[direction] = (
                self._link_table.drop_probability(direction)
                if self._link_table.is_failed(direction)
                else None
            )

    def _restore_baseline(
        self, link: DirectedLink, desired: Dict[DirectedLink, TransientFailure]
    ) -> None:
        """Re-apply the captured baseline after ``clear_failure`` wiped it."""
        physical = link.undirected()
        if physical not in self._baseline_down:
            return
        directions = physical.directions()
        for direction in directions:
            if direction in desired:
                continue  # a still-active transient re-applies right after
            rate = self._baseline_rate.get(direction)
            if rate is not None:
                self._link_table.inject_failure(direction, rate)
        if any(direction in desired for direction in directions):
            return  # keep the baseline until the physical link is fully quiet
        if self._baseline_down.pop(physical):
            self._link_table.set_link_down(physical)
        for direction in directions:
            self._baseline_rate.pop(direction, None)

    def apply_epoch(self, epoch: int) -> FailureScenario:
        """Activate/deactivate failures for ``epoch``; returns the active scenario."""
        active = self.active_at(epoch)
        desired: Dict[DirectedLink, TransientFailure] = {}
        for failure in active:
            current = desired.get(failure.link)
            if current is None or (failure.blackhole, failure.drop_rate) > (
                current.blackhole,
                current.drop_rate,
            ):
                desired[failure.link] = failure
        down_physicals = {f.link.undirected() for f in active if f.blackhole}

        # Deactivate expired failures first (clear_failure resets the whole
        # physical link), then restore the captured baselines in a second
        # pass so clearing one direction cannot wipe a just-restored reverse.
        cleared = [link for link in self._currently_active if link not in desired]
        for link in cleared:
            self._link_table.clear_failure(link)
            self._currently_active.discard(link)
        for link in cleared:
            self._restore_baseline(link, desired)

        scenario = FailureScenario()
        for link, failure in desired.items():
            if link not in self._currently_active:
                self._capture_baseline(link)
            blackholed = link.undirected() in down_physicals
            if blackholed:
                self._link_table.set_link_down(link)
            else:
                self._link_table.inject_failure(link, failure.drop_rate)
            self._currently_active.add(link)
            scenario.bad_links.append(link)
            scenario.drop_rates[link] = 1.0 if blackholed else failure.drop_rate
        return scenario


@dataclass(frozen=True)
class VmRebootEvent:
    """A VM rebooted because its image-mount flow failed (Appendix A)."""

    epoch: int
    host: str
    storage_host: str
    cause_link: Optional[DirectedLink]
    retransmissions: int


class VmRebootModel:
    """Models VM reboots caused by drops on storage (image-mount) flows.

    In the paper's datacenters VM images are mounted over the network; even a
    short outage on the path to the storage service can panic the guest and
    reboot it.  Here a VM on ``host`` reboots during an epoch when one of the
    host's ``kind == "storage"`` flows either fails outright or accumulates at
    least ``retransmission_threshold`` retransmissions.
    """

    def __init__(self, retransmission_threshold: int = 3) -> None:
        if retransmission_threshold < 1:
            raise ValueError("retransmission_threshold must be >= 1")
        self._threshold = retransmission_threshold

    def reboots_for_epoch(self, flows: Iterable[FlowRecord]) -> List[VmRebootEvent]:
        """Return the reboot events implied by this epoch's storage flows."""
        reboots: List[VmRebootEvent] = []
        rebooted_hosts: Set[str] = set()
        for flow in flows:
            if flow.kind != "storage":
                continue
            if flow.src_host in rebooted_hosts:
                continue
            if flow.connection_failed or flow.retransmissions >= self._threshold:
                reboots.append(
                    VmRebootEvent(
                        epoch=flow.epoch,
                        host=flow.src_host,
                        storage_host=flow.dst_host,
                        cause_link=flow.true_drop_link(),
                        retransmissions=flow.retransmissions,
                    )
                )
                rebooted_hosts.add(flow.src_host)
        return reboots
