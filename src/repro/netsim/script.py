"""Declarative time-varying scenario scripts.

The paper's production story is dynamic: links flap, congestion comes and
goes in bursts, switches reboot (changing their proprietary ECMP seeds), and
operators drain links — all while 007 keeps voting (Sections 6.6, 8.3).  A
:class:`ScenarioScript` captures such a timeline declaratively as a list of
*events* pinned to epochs:

>>> script = (
...     ScenarioScript()
...     .flap(start=2, duration=3, drop_rate=0.01, level=LinkLevel.LEVEL1)
...     .burst(start=6, duration=2, level=LinkLevel.LEVEL2, num_links=3)
...     .reboot_switch(epoch=9, tier=SwitchTier.T1)
... )

Scripts carry no topology references, so they are cheap to build, picklable
(the sweep runner ships them to worker processes inside a
:class:`~repro.experiments.scenario.ScenarioConfig`), and reusable across
fabrics.  :meth:`ScenarioScript.compile` resolves them against a concrete
topology/link table/router into a :class:`CompiledScenarioScript`, which
drives a :class:`~repro.netsim.failures.TransientFailureSchedule` (and the
router's ECMP reseeds, and traffic-generator swaps) epoch by epoch, returning
the per-epoch ground-truth :class:`~repro.netsim.failures.FailureScenario`.

Events with ``link=None``/``switch=None`` pick a random target of the given
level/tier at compile time, so one script describes a *family* of scenarios
whose concrete victims vary with the compile seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.netsim.failures import FailureScenario, TransientFailure, TransientFailureSchedule
from repro.netsim.links import LinkStateTable
from repro.netsim.traffic import TrafficGenerator, TrafficKind, traffic_generator
from repro.topology.clos import ClosTopology
from repro.topology.elements import DirectedLink, Link, LinkLevel, SwitchTier
from repro.util.jsonable import from_json, to_json
from repro.util.rng import RngLike, ensure_rng


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinkFlap:
    """A lossy link for a window of epochs (the classic flapping optic)."""

    #: the event's tag in its JSON form (:mod:`repro.util.jsonable`).
    kind = "flap"

    start_epoch: int
    duration_epochs: int
    drop_rate: float = 0.01
    #: concrete victim; when ``None`` a random directed link of ``level`` is
    #: chosen at compile time.
    link: Optional[DirectedLink] = None
    level: Optional[LinkLevel] = None

    @property
    def end_epoch(self) -> int:
        return self.start_epoch + self.duration_epochs


@dataclass(frozen=True)
class CongestionBurst:
    """Several links of one level dropping at once (a congestion episode)."""

    kind = "burst"

    start_epoch: int
    duration_epochs: int
    level: LinkLevel = LinkLevel.LEVEL2
    num_links: int = 3
    drop_rate: float = 5e-3

    @property
    def end_epoch(self) -> int:
        return self.start_epoch + self.duration_epochs


@dataclass(frozen=True)
class SwitchReboot:
    """A switch goes dark for ``outage_epochs`` and comes back with a new ECMP seed.

    During the outage every link adjacent to the switch blackholes (as the
    paper's traceroutes would observe); when the switch returns its hash seed
    is re-drawn — the paper notes ECMP functions change across reboots, which
    is why 007 measures paths instead of computing them.
    """

    kind = "reboot"

    epoch: int
    outage_epochs: int = 1
    #: concrete switch name; when ``None`` a random switch of ``tier`` reboots.
    switch: Optional[str] = None
    tier: Optional[SwitchTier] = SwitchTier.T1

    @property
    def end_epoch(self) -> int:
        # +1: the switch returns (and is reseeded) during the epoch after the
        # outage, so that epoch is still part of the event.
        return self.epoch + max(1, self.outage_epochs) + 1


@dataclass(frozen=True)
class LinkDrain:
    """An operator drains a physical link (fully down, both directions)."""

    kind = "drain"

    start_epoch: int
    duration_epochs: int
    link: Optional[Link] = None
    level: Optional[LinkLevel] = None

    @property
    def end_epoch(self) -> int:
        return self.start_epoch + self.duration_epochs


@dataclass(frozen=True)
class LinecardFailure:
    """Several links sharing one switch's linecard fail *together*.

    The correlated-fault mode of Section 8: one linecard serves many ports, so
    a single hardware fault takes a whole group of links down (or gray) at
    once.  ``num_links`` physical links adjacent to ``switch`` are struck for
    the window; ``blackhole=True`` (the default) takes them fully down, while
    ``blackhole=False`` with a sub-1.0 ``drop_rate`` models a gray linecard
    that drops silently instead of dying.
    """

    kind = "linecard"

    start_epoch: int
    duration_epochs: int
    num_links: int = 3
    drop_rate: float = 1.0
    blackhole: bool = True
    #: concrete switch name; when ``None`` a random switch of ``tier`` is
    #: chosen at compile time.
    switch: Optional[str] = None
    tier: Optional[SwitchTier] = SwitchTier.T1

    @property
    def end_epoch(self) -> int:
        return self.start_epoch + self.duration_epochs


@dataclass(frozen=True)
class FabricExpansion:
    """New capacity comes online mid-run: ``switch``'s links are dark before
    ``epoch`` and healthy from ``epoch`` onward.

    Models the expansion cutover: freshly-installed links blackhole every
    packet hashed onto them until the cutover epoch (the
    racked-but-misconfigured window operators fear), then turn healthy — 007
    must both flag the dark links while they drop and stop blaming them the
    epoch the cutover lands.
    """

    kind = "expand"

    epoch: int
    #: concrete switch whose links come online; when ``None`` a random switch
    #: of ``tier`` is chosen at compile time.
    switch: Optional[str] = None
    tier: Optional[SwitchTier] = SwitchTier.T2

    @property
    def end_epoch(self) -> int:
        # the cutover epoch itself is part of the event: it must be simulated
        # for the links' return to health to be observable.
        return self.epoch + 1


@dataclass(frozen=True)
class TrafficShift:
    """Swap the traffic generator from ``epoch`` onward (workload change).

    Unset connection/packet parameters are inherited from the generator active
    at the time of the shift.
    """

    kind = "shift"

    epoch: int
    traffic: TrafficKind = "uniform"
    connections_per_host: Optional[Union[int, Tuple[int, int]]] = None
    packets_per_flow: Optional[Union[int, Tuple[int, int]]] = None
    num_hot_tors: int = 3
    hot_fraction: float = 0.8
    hot_tor_skew: float = 0.5

    @property
    def end_epoch(self) -> int:
        # the shift takes effect during ``epoch`` itself
        return self.epoch + 1


ScenarioEvent = Union[
    LinkFlap,
    CongestionBurst,
    SwitchReboot,
    LinkDrain,
    LinecardFailure,
    FabricExpansion,
    TrafficShift,
]


# ----------------------------------------------------------------------
# the script
# ----------------------------------------------------------------------
@dataclass
class ScenarioScript:
    """A declarative, topology-free timeline of scenario events."""

    events: List[ScenarioEvent] = field(default_factory=list)

    # -- builder API ----------------------------------------------------
    def add(self, event: ScenarioEvent) -> "ScenarioScript":
        """Append one event; returns ``self`` for chaining."""
        self.events.append(event)
        return self

    def flap(
        self,
        start: int,
        duration: int,
        drop_rate: float = 0.01,
        link: Optional[DirectedLink] = None,
        level: Optional[LinkLevel] = None,
    ) -> "ScenarioScript":
        """A link flaps (drops at ``drop_rate``) during ``[start, start+duration)``."""
        return self.add(
            LinkFlap(
                start_epoch=start,
                duration_epochs=duration,
                drop_rate=drop_rate,
                link=link,
                level=level,
            )
        )

    def burst(
        self,
        start: int,
        duration: int,
        level: LinkLevel = LinkLevel.LEVEL2,
        num_links: int = 3,
        drop_rate: float = 5e-3,
    ) -> "ScenarioScript":
        """``num_links`` random links of ``level`` congest together."""
        return self.add(
            CongestionBurst(
                start_epoch=start,
                duration_epochs=duration,
                level=level,
                num_links=num_links,
                drop_rate=drop_rate,
            )
        )

    def reboot_switch(
        self,
        epoch: int,
        switch: Optional[str] = None,
        tier: Optional[SwitchTier] = SwitchTier.T1,
        outage_epochs: int = 1,
    ) -> "ScenarioScript":
        """A switch goes down for ``outage_epochs`` and returns reseeded."""
        return self.add(
            SwitchReboot(epoch=epoch, outage_epochs=outage_epochs, switch=switch, tier=tier)
        )

    def drain(
        self,
        start: int,
        duration: int,
        link: Optional[Link] = None,
        level: Optional[LinkLevel] = None,
    ) -> "ScenarioScript":
        """A physical link is drained (blackholed) during the window."""
        return self.add(
            LinkDrain(start_epoch=start, duration_epochs=duration, link=link, level=level)
        )

    def linecard(
        self,
        start: int,
        duration: int,
        num_links: int = 3,
        drop_rate: float = 1.0,
        blackhole: bool = True,
        switch: Optional[str] = None,
        tier: Optional[SwitchTier] = SwitchTier.T1,
    ) -> "ScenarioScript":
        """``num_links`` links on one switch's linecard fail together."""
        return self.add(
            LinecardFailure(
                start_epoch=start,
                duration_epochs=duration,
                num_links=num_links,
                drop_rate=drop_rate,
                blackhole=blackhole,
                switch=switch,
                tier=tier,
            )
        )

    # -- introspection --------------------------------------------------
    @property
    def horizon(self) -> int:
        """First epoch at which every event has finished (0 for empty scripts)."""
        return max((event.end_epoch for event in self.events), default=0)

    def __len__(self) -> int:
        return len(self.events)

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        """The script as JSON-ready primitives (:mod:`repro.util.jsonable`)."""
        return to_json(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioScript":
        """Rebuild a script from :meth:`to_dict` output (faults raise ``ValueError``)."""
        return from_json(cls, data)

    # -- compilation ----------------------------------------------------
    def compile(
        self,
        topology: ClosTopology,
        link_table: LinkStateTable,
        router=None,
        rng: RngLike = 0,
    ) -> "CompiledScenarioScript":
        """Resolve the script against a concrete fabric.

        Random victims (events with ``link=None``/``switch=None``) are drawn
        here from ``rng``, so the same seed always yields the same concrete
        scenario — both analysis engines compile to identical timelines.
        """
        return CompiledScenarioScript(self, topology, link_table, router=router, rng=rng)


class CompiledScenarioScript:
    """A :class:`ScenarioScript` bound to a topology/link table/router.

    Call :meth:`apply_epoch` at the start of every epoch (the pipeline does
    this): it activates/clears the epoch's transient failures, performs due
    ECMP reseeds, and returns the epoch's active ground-truth scenario.
    """

    def __init__(
        self,
        script: ScenarioScript,
        topology: ClosTopology,
        link_table: LinkStateTable,
        router=None,
        rng: RngLike = 0,
    ) -> None:
        self._topology = topology
        self._router = router
        self._rng = ensure_rng(rng)
        self._schedule = TransientFailureSchedule(link_table)
        #: epoch -> switches whose ECMP seed is re-drawn once that epoch (or
        #: any later one) is applied; entries are consumed when they fire.
        self._reseeds: Dict[int, List[str]] = {}
        #: epoch -> traffic shift taking effect from that epoch onward.
        self._shifts: Dict[int, TrafficShift] = {}
        #: epoch of the shift most recently handed out (so a shift fires once
        #: even when epochs are driven from a nonzero start or with gaps).
        self._applied_shift_epoch: Optional[int] = None
        #: the script's declared horizon — kept so :attr:`horizon` always
        #: agrees with :attr:`ScenarioScript.horizon` for every event type
        #: (e.g. a reboot's reseed epoch and an expansion's cutover epoch are
        #: part of the event even though no failure is active during them).
        self._declared_horizon = script.horizon
        for event in script.events:
            self._resolve(event)

    # -- event resolution ----------------------------------------------
    def _resolve(self, event: ScenarioEvent) -> None:
        if isinstance(event, LinkFlap):
            link = event.link if event.link is not None else self._random_directed_link(
                event.level if event.level is not None else LinkLevel.LEVEL1
            )
            self._schedule.add(
                TransientFailure(
                    link=link,
                    drop_rate=event.drop_rate,
                    start_epoch=event.start_epoch,
                    duration_epochs=event.duration_epochs,
                )
            )
        elif isinstance(event, CongestionBurst):
            for link in self._random_directed_links(event.level, event.num_links):
                self._schedule.add(
                    TransientFailure(
                        link=link,
                        drop_rate=event.drop_rate,
                        start_epoch=event.start_epoch,
                        duration_epochs=event.duration_epochs,
                    )
                )
        elif isinstance(event, SwitchReboot):
            switch = event.switch if event.switch is not None else self._random_switch(
                event.tier if event.tier is not None else SwitchTier.T1
            )
            outage = max(1, event.outage_epochs)
            for physical in self._topology.links_of_node(switch):
                for direction in physical.directions():
                    self._schedule.add(
                        TransientFailure(
                            link=direction,
                            drop_rate=1.0,
                            start_epoch=event.epoch,
                            duration_epochs=outage,
                            blackhole=True,
                        )
                    )
            self._reseeds.setdefault(event.epoch + outage, []).append(switch)
        elif isinstance(event, LinkDrain):
            physical = event.link if event.link is not None else self._random_physical_link(
                event.level if event.level is not None else LinkLevel.LEVEL1
            )
            for direction in physical.directions():
                self._schedule.add(
                    TransientFailure(
                        link=direction,
                        drop_rate=1.0,
                        start_epoch=event.start_epoch,
                        duration_epochs=event.duration_epochs,
                        blackhole=True,
                    )
                )
        elif isinstance(event, LinecardFailure):
            switch = event.switch if event.switch is not None else self._random_switch(
                event.tier if event.tier is not None else SwitchTier.T1
            )
            for physical in self._linecard_links(switch, event.num_links):
                for direction in physical.directions():
                    self._schedule.add(
                        TransientFailure(
                            link=direction,
                            drop_rate=event.drop_rate,
                            start_epoch=event.start_epoch,
                            duration_epochs=event.duration_epochs,
                            blackhole=event.blackhole,
                        )
                    )
        elif isinstance(event, FabricExpansion):
            switch = event.switch if event.switch is not None else self._random_switch(
                event.tier if event.tier is not None else SwitchTier.T2
            )
            # links are dark from the start of the run until the cutover; an
            # expansion at epoch 0 has no dark window (links were always up).
            if event.epoch > 0:
                for physical in self._topology.links_of_node(switch):
                    for direction in physical.directions():
                        self._schedule.add(
                            TransientFailure(
                                link=direction,
                                drop_rate=1.0,
                                start_epoch=0,
                                duration_epochs=event.epoch,
                                blackhole=True,
                            )
                        )
        elif isinstance(event, TrafficShift):
            self._shifts[event.epoch] = event
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown scenario event {event!r}")

    # -- random victim selection ----------------------------------------
    def _level_candidates(self, level: LinkLevel) -> List[Link]:
        candidates = sorted(self._topology.links_of_level(level))
        if not candidates:
            raise ValueError(f"topology has no links of level {level!r}")
        return candidates

    def _random_physical_link(self, level: LinkLevel) -> Link:
        candidates = self._level_candidates(level)
        return candidates[int(self._rng.integers(0, len(candidates)))]

    def _random_directed_link(self, level: LinkLevel) -> DirectedLink:
        directed = [d for link in self._level_candidates(level) for d in link.directions()]
        return directed[int(self._rng.integers(0, len(directed)))]

    def _random_directed_links(self, level: LinkLevel, count: int) -> List[DirectedLink]:
        directed = [d for link in self._level_candidates(level) for d in link.directions()]
        if count > len(directed):
            raise ValueError(
                f"cannot pick {count} links, level {level!r} only has {len(directed)}"
            )
        chosen = self._rng.choice(len(directed), size=count, replace=False)
        return [directed[int(i)] for i in sorted(int(i) for i in chosen)]

    def _random_switch(self, tier: SwitchTier) -> str:
        names = sorted(s.name for s in self._topology.switches_of_tier(tier))
        if not names:
            raise ValueError(f"topology has no switches of tier {tier!r}")
        return names[int(self._rng.integers(0, len(names)))]

    def _linecard_links(self, switch: str, count: int) -> List[Link]:
        """``count`` of ``switch``'s physical links, drawn without replacement."""
        candidates = sorted(self._topology.links_of_node(switch))
        if not candidates:
            raise ValueError(f"switch {switch!r} has no links")
        if count > len(candidates):
            raise ValueError(
                f"cannot fail {count} linecard links, switch {switch!r} "
                f"only has {len(candidates)}"
            )
        chosen = self._rng.choice(len(candidates), size=count, replace=False)
        return [candidates[int(i)] for i in sorted(int(i) for i in chosen)]

    # -- epoch driving ---------------------------------------------------
    @property
    def schedule(self) -> TransientFailureSchedule:
        """The underlying transient-failure schedule (resolved events)."""
        return self._schedule

    @property
    def horizon(self) -> int:
        """First epoch at which every resolved failure/reseed/shift has finished.

        Always equals :attr:`ScenarioScript.horizon` of the source script: the
        resolved-state horizon (failure windows, pending reseeds, traffic
        shifts) is cross-checked against the declared per-event ``end_epoch``
        horizon so neither side can silently drop a scenario's last scripted
        epoch.
        """
        reseed_horizon = max((epoch + 1 for epoch in self._reseeds), default=0)
        shift_horizon = max((epoch + 1 for epoch in self._shifts), default=0)
        return max(
            self._schedule.horizon,
            reseed_horizon,
            shift_horizon,
            self._declared_horizon,
        )

    def apply_epoch(self, epoch: int) -> FailureScenario:
        """Apply all state changes due at ``epoch``; returns the active scenario.

        Reseeds due at or before ``epoch`` that have not fired yet fire now
        (in due-epoch order), so switches still come back reseeded when epochs
        are driven from a nonzero start or with gaps.
        """
        for due in sorted(e for e in self._reseeds if e <= epoch):
            for switch in self._reseeds.pop(due):
                if self._router is not None:
                    self._router.reseed_switch(switch, rng=self._rng)
        return self._schedule.apply_epoch(epoch)

    def traffic_for_epoch(
        self, epoch: int, current: Optional[TrafficGenerator] = None
    ) -> Optional[TrafficGenerator]:
        """The new traffic generator in effect from ``epoch`` (``None`` = keep).

        Returns the generator of the latest shift at or before ``epoch`` the
        first time that shift is seen — also when epochs start late or skip —
        and ``None`` while no new shift applies.  Unset connection/packet
        parameters inherit from ``current``.
        """
        due = [e for e in self._shifts if e <= epoch]
        if not due:
            return None
        latest = max(due)
        if latest == self._applied_shift_epoch:
            return None
        self._applied_shift_epoch = latest
        shift = self._shifts[latest]
        connections = shift.connections_per_host
        packets = shift.packets_per_flow
        if connections is None:
            connections = current.connections_per_host if current is not None else 60
        if packets is None:
            packets = current.packets_per_flow if current is not None else 100
        return traffic_generator(self._topology, shift, connections, packets)
