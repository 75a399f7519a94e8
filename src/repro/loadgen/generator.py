"""The synthetic evidence load generator.

:class:`EvidenceLoadGenerator` emits the event stream a fleet of 007
monitoring agents would produce on a Clos fabric — ECMP-valid discovered
paths for flows that suffered retransmissions, O(1) count bumps for flows
that retransmit again, and epoch ticks — without running the TCP simulator.
This is what lets the benchmark harness (and the hardening tests) drive
:class:`~repro.api.service.Zero07Service` at fabric scale: millions of
events, deterministic per ``(seed, epoch)``, generated in seconds.

Realism knobs come from the :class:`~repro.loadgen.profiles.WorkloadProfile`
(host popularity skew, hot-ToR sinks, evidence concentration on bad links,
repeat-retransmission mix) and, for time variation, from a
:class:`~repro.netsim.script.ScenarioScript`: flap/burst/drain/reboot events
are resolved against the fabric at construction time into *bad-link windows*,
so evidence shifts onto the scripted victims during exactly the epochs the
script says — the same event vocabulary the netsim scenario engine compiles.

Paths are assembled from pre-interned :class:`DirectedLink` objects (one
object per fabric link, shared by every event), which keeps generation fast
and a stream's memory small; the engines intern by value, so sharing is no
speed requirement on a source.
Every stream is reproducible: the generator draws all randomness from
``numpy`` generators keyed on ``(seed, epoch)``, so epoch ``k`` of a given
generator configuration is identical no matter which epochs were generated
before it, from which process, in which order.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.events import EpochTick, Evidence, PathEvidence, RetransmissionEvidence
from repro.discovery.agent import DiscoveredPath
from repro.loadgen.profiles import WorkloadProfile, fabric_parameters
from repro.netsim.script import (
    CongestionBurst,
    FabricExpansion,
    LinecardFailure,
    LinkDrain,
    LinkFlap,
    ScenarioScript,
    SwitchReboot,
)
from repro.routing.fivetuple import FiveTuple
from repro.topology.clos import ClosParameters, ClosTopology
from repro.topology.elements import DirectedLink, LinkLevel, SwitchTier


class _BadLinkSpec:
    """A resolved bad directed link plus everything needed to route through it.

    ``kind`` encodes the link's position in the Clos hierarchy (and its
    direction); ``src_candidates``/``dst_candidates`` are host-index arrays a
    flow through the link may start/end at; ``nodes`` carries the fixed
    switch names of the forced hops.
    """

    __slots__ = ("kind", "link", "src_candidates", "dst_candidates", "nodes")

    def __init__(self, kind, link, src_candidates, dst_candidates, nodes):
        self.kind = kind
        self.link = link
        self.src_candidates = src_candidates
        self.dst_candidates = dst_candidates
        self.nodes = nodes


class EvidenceLoadGenerator:
    """Generates fabric-scale evidence streams from a Clos sizing + profile.

    Parameters
    ----------
    fabric:
        A :class:`ClosParameters` sizing or a preset name
        (:data:`~repro.loadgen.profiles.FABRIC_PRESETS`).
    profile:
        The :class:`WorkloadProfile` (defaults to the uniform mix).
    script:
        Optional :class:`ScenarioScript`; its flap/burst/drain/reboot/
        linecard/expansion events are resolved (seeded random victims
        included) into time-varying bad-link windows that bias evidence
        during the scripted epochs.  ``TrafficShift`` events carry no
        failure information and are ignored.
    seed:
        Master seed; the whole stream is a pure function of
        ``(fabric, profile, script, seed, events_per_epoch)``.
    events_per_epoch:
        Evidence events per epoch (paths + repeat updates, excluding the
        final :class:`EpochTick`).
    """

    def __init__(
        self,
        fabric: Union[str, ClosParameters] = "medium",
        profile: Optional[WorkloadProfile] = None,
        script: Optional[ScenarioScript] = None,
        seed: int = 0,
        events_per_epoch: int = 100_000,
    ) -> None:
        if events_per_epoch < 0:
            raise ValueError("events_per_epoch must be >= 0")
        self._params = fabric_parameters(fabric)
        self._profile = profile if profile is not None else WorkloadProfile()
        self._seed = int(seed)
        self._events_per_epoch = int(events_per_epoch)
        self._topology = ClosTopology(self._params)
        self._index_fabric()
        rng = np.random.default_rng([self._seed, 0xFAB])
        self._static_specs = self._resolve_static_bad_links(rng)
        self._windows = self._resolve_script(script, rng)
        #: pure functions of the constructor arguments — computed once.
        self._weights = self._popularity_weights()
        self._hot = self._hot_hosts()

    # ------------------------------------------------------------------
    # fabric indexing
    # ------------------------------------------------------------------
    def _index_fabric(self) -> None:
        topo = self._topology
        self._hosts: List[str] = sorted(topo.hosts)
        self._host_ids: Dict[str, int] = {h: i for i, h in enumerate(self._hosts)}
        self._host_tor: List[str] = [topo.host(h).tor for h in self._hosts]
        self._host_pod: List[int] = [topo.host(h).pod for h in self._hosts]
        npod = self._params.npod
        self._pod_t1: List[List[str]] = [
            [s.name for s in topo.tier1s(pod)] for pod in range(npod)
        ]
        self._t2: List[str] = [s.name for s in topo.tier2s()]
        self._hosts_by_tor: Dict[str, np.ndarray] = {}
        self._hosts_by_pod: List[np.ndarray] = [np.empty(0, np.int64)] * npod
        by_tor: Dict[str, List[int]] = {}
        by_pod: List[List[int]] = [[] for _ in range(npod)]
        for i, h in enumerate(self._hosts):
            by_tor.setdefault(self._host_tor[i], []).append(i)
            by_pod[self._host_pod[i]].append(i)
        for tor, ids in by_tor.items():
            self._hosts_by_tor[tor] = np.asarray(ids, dtype=np.int64)
        for pod, ids in enumerate(by_pod):
            self._hosts_by_pod[pod] = np.asarray(ids, dtype=np.int64)
        #: one shared DirectedLink object per fabric direction — paths reuse
        #: them, so a stream holds one object per link however many events.
        self._links: Dict[Tuple[str, str], DirectedLink] = {
            (link.src, link.dst): link for link in topo.directed_links()
        }

    @property
    def params(self) -> ClosParameters:
        """The fabric sizing the stream is generated over."""
        return self._params

    @property
    def profile(self) -> WorkloadProfile:
        """The workload profile in effect."""
        return self._profile

    @property
    def events_per_epoch(self) -> int:
        """Evidence events per epoch (the final tick not included)."""
        return self._events_per_epoch

    @property
    def num_hosts(self) -> int:
        """Number of hosts in the fabric."""
        return len(self._hosts)

    def bad_links_for_epoch(self, epoch: int) -> List[DirectedLink]:
        """The directed links evidence concentrates on during ``epoch``."""
        return [spec.link for spec in self._active_specs(epoch)]

    def describe(self) -> str:
        """One-line human-readable description of the workload."""
        p = self._params
        return (
            f"{len(self._hosts)} hosts ({p.npod} pods x {p.n0} ToRs x "
            f"{p.hosts_per_tor}), {len(self._links)} directed links, "
            f"{self._events_per_epoch} events/epoch, "
            f"profile {self._profile.popularity}"
            + (
                f" + hot-ToR {self._profile.hot_tor_fraction:.0%}"
                if self._profile.hot_tor_fraction
                else ""
            )
            + f", {len(self._static_specs)} static bad link(s), "
            f"{len(self._windows)} scripted window(s)"
        )

    # ------------------------------------------------------------------
    # bad-link resolution
    # ------------------------------------------------------------------
    def _directed_candidates(self, levels: Sequence[LinkLevel]) -> List[DirectedLink]:
        out: List[DirectedLink] = []
        for level in levels:
            for link in sorted(self._topology.links_of_level(level)):
                for direction in link.directions():
                    out.append(self._links[(direction.src, direction.dst)])
        return out

    def _spec_for(self, link: DirectedLink) -> Optional[_BadLinkSpec]:
        """Resolve a directed link into a routing spec (``None`` if no flow
        over this fabric can traverse it — e.g. a level-2 link in a 1-pod
        fabric, or a leaf link in a single-rack fabric with no peers)."""
        topo = self._topology
        all_hosts = np.arange(len(self._hosts), dtype=np.int64)
        if topo.is_host(link.src):  # host -> ToR (up)
            src_fixed = self._host_ids[link.src]
            dst = all_hosts[all_hosts != src_fixed]
            if not len(dst):
                return None
            return _BadLinkSpec("host_up", link, None, dst, (src_fixed,))
        if topo.is_host(link.dst):  # ToR -> host (down)
            dst_fixed = self._host_ids[link.dst]
            src = all_hosts[all_hosts != dst_fixed]
            if not len(src):
                return None
            return _BadLinkSpec("host_down", link, src, None, (dst_fixed,))

        src_switch = topo.switch(link.src)
        dst_switch = topo.switch(link.dst)
        tiers = (src_switch.tier, dst_switch.tier)
        level = topo.link_level(link)
        if level == LinkLevel.LEVEL1:
            tor, t1 = (
                (link.src, link.dst) if tiers[0] == 0 else (link.dst, link.src)
            )
            under = self._hosts_by_tor.get(tor, np.empty(0, np.int64))
            outside = np.setdiff1d(all_hosts, under, assume_unique=True)
            if not len(under) or not len(outside):
                return None
            pod = topo.switch(tor).pod
            if tiers[0] == 0:  # ToR -> T1: flows *from* hosts under the ToR
                return _BadLinkSpec("l1_up", link, under, outside, (tor, t1, pod))
            return _BadLinkSpec("l1_down", link, outside, under, (t1, tor, pod))
        if level == LinkLevel.LEVEL2:
            t1, t2 = (
                (link.src, link.dst) if tiers[0] == 1 else (link.dst, link.src)
            )
            pod = topo.switch(t1).pod
            inside = self._hosts_by_pod[pod]
            outside = np.setdiff1d(all_hosts, inside, assume_unique=True)
            if not len(inside) or not len(outside):
                return None
            if tiers[0] == 1:  # T1 -> T2: cross-pod flows leaving ``pod``
                return _BadLinkSpec("l2_up", link, inside, outside, (t1, t2, pod))
            return _BadLinkSpec("l2_down", link, outside, inside, (t2, t1, pod))
        return None  # level-3 links are never traversed (paper Section 4.1)

    def _resolve_static_bad_links(self, rng: np.random.Generator) -> List[_BadLinkSpec]:
        count = self._profile.num_bad_links
        if count <= 0:
            return []
        levels = [LinkLevel.LEVEL1]
        if self._params.npod >= 2:
            levels.append(LinkLevel.LEVEL2)
        candidates = self._directed_candidates(levels)
        specs: List[_BadLinkSpec] = []
        if not candidates:
            return specs
        order = rng.permutation(len(candidates))
        for idx in order:
            spec = self._spec_for(candidates[int(idx)])
            if spec is not None:
                specs.append(spec)
            if len(specs) == count:
                break
        return specs

    def _resolve_script(
        self, script: Optional[ScenarioScript], rng: np.random.Generator
    ) -> List[Tuple[int, int, List[_BadLinkSpec]]]:
        """Resolve script events into ``(start, end, specs)`` windows."""
        if script is None:
            return []
        windows: List[Tuple[int, int, List[_BadLinkSpec]]] = []
        for event in script.events:
            if isinstance(event, LinkFlap):
                if event.link is not None:
                    victims = [self._canonical(event.link)]
                else:
                    victims = self._pick_of_level(event.level, 1, rng)
                windows.append((event.start_epoch, event.end_epoch, victims))
            elif isinstance(event, CongestionBurst):
                victims = self._pick_of_level(event.level, event.num_links, rng)
                windows.append((event.start_epoch, event.end_epoch, victims))
            elif isinstance(event, LinkDrain):
                if event.link is not None:
                    directions = [
                        self._links.get((d.src, d.dst))
                        for d in event.link.directions()
                    ]
                    victims = [d for d in directions if d is not None]
                else:
                    victims = self._pick_of_level(event.level, 1, rng, both=True)
                windows.append((event.start_epoch, event.end_epoch, victims))
            elif isinstance(event, SwitchReboot):
                victims = self._switch_victims(event, rng)
                end = event.epoch + max(1, event.outage_epochs)
                windows.append((event.epoch, end, victims))
            elif isinstance(event, LinecardFailure):
                victims = self._linecard_victims(event, rng)
                windows.append((event.start_epoch, event.end_epoch, victims))
            elif isinstance(event, FabricExpansion):
                # Expansion links are dark (blackholed) until the cutover
                # epoch: evidence concentrates on them during [0, epoch).
                if event.epoch > 0:
                    name = self._pick_switch(
                        event.switch,
                        event.tier if event.tier is not None else SwitchTier.T2,
                        rng,
                    )
                    victims = self._all_directions_of(name)
                    windows.append((0, event.epoch, victims))
            # TrafficShift carries no failure; popularity is profile-driven.
        resolved: List[Tuple[int, int, List[_BadLinkSpec]]] = []
        for start, end, victims in windows:
            specs = [
                spec
                for spec in (self._spec_for(v) for v in victims)
                if spec is not None
            ]
            if specs:
                resolved.append((start, end, specs))
        return resolved

    def _canonical(self, link: DirectedLink) -> DirectedLink:
        found = self._links.get((link.src, link.dst))
        if found is None:
            raise ValueError(f"scripted link {link} does not exist in the fabric")
        return found

    def _pick_of_level(
        self,
        level: Optional[LinkLevel],
        count: int,
        rng: np.random.Generator,
        both: bool = False,
    ) -> List[DirectedLink]:
        level = level if level is not None else LinkLevel.LEVEL1
        links = sorted(self._topology.links_of_level(level))
        if not links:
            return []
        picks = rng.permutation(len(links))[: max(1, count)]
        victims: List[DirectedLink] = []
        for idx in picks:
            link = links[int(idx)]
            directions = link.directions()
            if both:
                victims.extend(self._links[(d.src, d.dst)] for d in directions)
            else:
                chosen = directions[int(rng.integers(0, 2))]
                victims.append(self._links[(chosen.src, chosen.dst)])
        return victims

    def _pick_switch(
        self, name: Optional[str], tier: SwitchTier, rng: np.random.Generator
    ) -> Optional[str]:
        if name is not None:
            return name
        candidates = sorted(
            s.name for s in self._topology.switches_of_tier(tier)
        )
        if not candidates:
            return None
        return candidates[int(rng.integers(0, len(candidates)))]

    def _all_directions_of(self, name: Optional[str]) -> List[DirectedLink]:
        if name is None:
            return []
        victims: List[DirectedLink] = []
        for link in self._topology.links_of_node(name):
            for d in link.directions():
                victims.append(self._links[(d.src, d.dst)])
        return victims

    def _switch_victims(
        self, event: SwitchReboot, rng: np.random.Generator
    ) -> List[DirectedLink]:
        name = self._pick_switch(
            event.switch,
            event.tier if event.tier is not None else SwitchTier.T1,
            rng,
        )
        return self._all_directions_of(name)

    def _linecard_victims(
        self, event: LinecardFailure, rng: np.random.Generator
    ) -> List[DirectedLink]:
        name = self._pick_switch(
            event.switch,
            event.tier if event.tier is not None else SwitchTier.T1,
            rng,
        )
        if name is None:
            return []
        candidates = sorted(self._topology.links_of_node(name))
        if not candidates:
            return []
        count = min(event.num_links, len(candidates))
        chosen = rng.choice(len(candidates), size=count, replace=False)
        victims: List[DirectedLink] = []
        for idx in sorted(int(i) for i in chosen):
            for d in candidates[idx].directions():
                victims.append(self._links[(d.src, d.dst)])
        return victims

    def _active_specs(self, epoch: int) -> List[_BadLinkSpec]:
        specs = list(self._static_specs)
        for start, end, window_specs in self._windows:
            if start <= epoch < end:
                specs.extend(window_specs)
        return specs

    # ------------------------------------------------------------------
    # path assembly
    # ------------------------------------------------------------------
    def _normal_path(
        self, src_i: int, dst_i: int, t1u: int, t2c: int, t1d: int
    ) -> List[DirectedLink]:
        links = self._links
        hosts = self._hosts
        s, d = hosts[src_i], hosts[dst_i]
        st, dt = self._host_tor[src_i], self._host_tor[dst_i]
        if st == dt:
            return [links[(s, st)], links[(st, d)]]
        sp, dp = self._host_pod[src_i], self._host_pod[dst_i]
        up_t1s = self._pod_t1[sp]
        t1 = up_t1s[t1u % len(up_t1s)]
        if sp == dp:
            return [links[(s, st)], links[(st, t1)], links[(t1, dt)], links[(dt, d)]]
        t2 = self._t2[t2c % len(self._t2)]
        down_t1s = self._pod_t1[dp]
        t1b = down_t1s[t1d % len(down_t1s)]
        return [
            links[(s, st)],
            links[(st, t1)],
            links[(t1, t2)],
            links[(t2, t1b)],
            links[(t1b, dt)],
            links[(dt, d)],
        ]

    def _bad_path(
        self, spec: _BadLinkSpec, r_src: int, r_dst: int, t1u: int, t2c: int, t1d: int
    ) -> Tuple[int, int, List[DirectedLink]]:
        """A valid fabric path forced through ``spec``'s bad link."""
        links = self._links
        hosts = self._hosts
        kind = spec.kind
        if kind == "host_up":
            src_i = spec.nodes[0]
            dst_i = int(spec.dst_candidates[r_dst % len(spec.dst_candidates)])
            return src_i, dst_i, self._normal_path(src_i, dst_i, t1u, t2c, t1d)
        if kind == "host_down":
            dst_i = spec.nodes[0]
            src_i = int(spec.src_candidates[r_src % len(spec.src_candidates)])
            return src_i, dst_i, self._normal_path(src_i, dst_i, t1u, t2c, t1d)
        src_i = int(spec.src_candidates[r_src % len(spec.src_candidates)])
        dst_i = int(spec.dst_candidates[r_dst % len(spec.dst_candidates)])
        s, d = hosts[src_i], hosts[dst_i]
        st, dt = self._host_tor[src_i], self._host_tor[dst_i]
        sp, dp = self._host_pod[src_i], self._host_pod[dst_i]
        if kind == "l1_up":
            tor, t1, pod = spec.nodes
            if dp == pod:
                return src_i, dst_i, [
                    links[(s, tor)], links[(tor, t1)], links[(t1, dt)], links[(dt, d)],
                ]
            t2 = self._t2[t2c % len(self._t2)]
            down = self._pod_t1[dp]
            t1b = down[t1d % len(down)]
            return src_i, dst_i, [
                links[(s, tor)], links[(tor, t1)], links[(t1, t2)],
                links[(t2, t1b)], links[(t1b, dt)], links[(dt, d)],
            ]
        if kind == "l1_down":
            t1, tor, pod = spec.nodes
            if sp == pod:
                return src_i, dst_i, [
                    links[(s, st)], links[(st, t1)], links[(t1, tor)], links[(tor, d)],
                ]
            up = self._pod_t1[sp]
            t1a = up[t1u % len(up)]
            t2 = self._t2[t2c % len(self._t2)]
            return src_i, dst_i, [
                links[(s, st)], links[(st, t1a)], links[(t1a, t2)],
                links[(t2, t1)], links[(t1, tor)], links[(tor, d)],
            ]
        if kind == "l2_up":
            t1, t2, _pod = spec.nodes
            down = self._pod_t1[dp]
            t1b = down[t1d % len(down)]
            return src_i, dst_i, [
                links[(s, st)], links[(st, t1)], links[(t1, t2)],
                links[(t2, t1b)], links[(t1b, dt)], links[(dt, d)],
            ]
        # l2_down: T2 -> T1 into the destination pod
        t2, t1, _pod = spec.nodes
        up = self._pod_t1[sp]
        t1a = up[t1u % len(up)]
        return src_i, dst_i, [
            links[(s, st)], links[(st, t1a)], links[(t1a, t2)],
            links[(t2, t1)], links[(t1, dt)], links[(dt, d)],
        ]

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def _popularity_weights(self) -> Optional[np.ndarray]:
        if self._profile.popularity != "zipf" or len(self._hosts) < 2:
            return None
        rng = np.random.default_rng([self._seed, 0x21F])
        ranks = rng.permutation(len(self._hosts)) + 1
        weights = 1.0 / np.power(ranks, self._profile.zipf_exponent)
        return weights / weights.sum()

    def _hot_hosts(self) -> Optional[np.ndarray]:
        if self._profile.hot_tor_fraction <= 0.0:
            return None
        rng = np.random.default_rng([self._seed, 0x407])
        tors = sorted(self._hosts_by_tor)
        hot = tors[int(rng.integers(0, len(tors)))]
        return self._hosts_by_tor[hot]

    def _draw_hosts(
        self, rng: np.random.Generator, count: int, weights: Optional[np.ndarray]
    ) -> np.ndarray:
        if weights is None:
            return rng.integers(0, len(self._hosts), size=count)
        return rng.choice(len(self._hosts), size=count, p=weights)

    def _make_paths(
        self, epoch: int, count: int, rng: np.random.Generator
    ) -> List[DiscoveredPath]:
        profile = self._profile
        specs = self._active_specs(epoch)
        weights = self._weights
        hot = self._hot

        src = self._draw_hosts(rng, count, weights)
        dst = self._draw_hosts(rng, count, weights)
        if hot is not None:
            sink = rng.random(count) < profile.hot_tor_fraction
            dst[sink] = hot[rng.integers(0, len(hot), size=int(sink.sum()))]
        raw = rng.integers(0, np.iinfo(np.int64).max, size=(5, count))
        t1u, t2c, t1d, r_src, r_dst = raw
        if specs:
            bad = rng.random(count) < profile.bad_path_fraction
            bad_pick = rng.integers(0, len(specs), size=count)
        else:
            bad = np.zeros(count, dtype=bool)
            bad_pick = None
        retrans = np.ones(count, dtype=np.int64)
        num_bad = int(bad.sum())
        if num_bad:
            retrans[bad] = rng.integers(
                1, profile.max_initial_retransmissions + 1, size=num_bad
            )
        ports = rng.integers(1024, 65536, size=count)

        hosts = self._hosts
        num_hosts = len(hosts)
        flow_base = epoch * self._events_per_epoch
        paths: List[DiscoveredPath] = []
        append = paths.append
        for i in range(count):
            if bad[i]:
                spec = specs[bad_pick[i]]
                src_i, dst_i, path_links = self._bad_path(
                    spec, int(r_src[i]), int(r_dst[i]),
                    int(t1u[i]), int(t2c[i]), int(t1d[i]),
                )
            else:
                src_i = int(src[i])
                dst_i = int(dst[i])
                if dst_i == src_i:
                    dst_i = (dst_i + 1) % num_hosts
                path_links = self._normal_path(
                    src_i, dst_i, int(t1u[i]), int(t2c[i]), int(t1d[i])
                )
            s, d = hosts[src_i], hosts[dst_i]
            append(
                DiscoveredPath(
                    flow_id=flow_base + i,
                    five_tuple=FiveTuple(
                        src_ip=s, dst_ip=d, src_port=int(ports[i]), dst_port=443
                    ),
                    src_host=s,
                    dst_host=d,
                    links=path_links,
                    complete=True,
                    retransmissions=int(retrans[i]),
                    epoch=epoch,
                )
            )
        return paths

    # ------------------------------------------------------------------
    # streams
    # ------------------------------------------------------------------
    def epoch_events(self, epoch: int, tick: bool = True) -> List[Evidence]:
        """The epoch's evidence events in emission (= sequence) order.

        Deterministic per ``(seed, epoch)`` — independent of which other
        epochs were generated, or in which order.  The list interleaves path
        evidence with repeat-retransmission updates (per
        ``profile.repeat_fraction``) and, with ``tick=True``, ends with the
        epoch's :class:`EpochTick`.
        """
        rng = np.random.default_rng([self._seed, 0x5EED, int(epoch)])
        n = self._events_per_epoch
        out: List[Evidence] = []
        if n > 0 and len(self._hosts) >= 2:
            repeats = int(n * self._profile.repeat_fraction)
            paths = self._make_paths(epoch, n - repeats, rng)
            is_repeat = np.zeros(n, dtype=bool)
            if repeats:
                positions = rng.choice(np.arange(1, n), size=repeats, replace=False)
                is_repeat[positions] = True
            pick = rng.integers(0, np.iinfo(np.int64).max, size=n)
            extra = rng.integers(
                1, self._profile.max_extra_retransmissions + 1, size=n
            )
            emitted: List[int] = []
            emit_flow = emitted.append
            next_path = iter(paths).__next__
            append = out.append
            for seq in range(n):
                if is_repeat[seq]:
                    flow_id = emitted[int(pick[seq]) % len(emitted)]
                    append(
                        RetransmissionEvidence(
                            epoch=epoch,
                            flow_id=flow_id,
                            retransmissions=int(extra[seq]),
                            seq=seq,
                        )
                    )
                else:
                    path = next_path()
                    emit_flow(path.flow_id)
                    append(PathEvidence(epoch=epoch, seq=seq, path=path))
        if tick:
            out.append(EpochTick(epoch))
        return out

    def agent_events(
        self, epoch: int, agent_index: int, num_agents: int
    ) -> List[Evidence]:
        """Agent ``agent_index``'s contiguous slice of the epoch's evidence.

        The fleet partitioning: agent ``i`` of ``n`` emits the events at
        positions ``[i*len/n, (i+1)*len/n)`` of :meth:`epoch_events` (no
        tick), keeping the original global sequence numbers.  Every agent
        process regenerates only its own slice deterministically, and the
        union across agents is exactly the single-process stream — which is
        what makes a fleet run's reports comparable bit-for-bit against an
        ``ingest_batch`` replay.
        """
        if not 0 <= agent_index < num_agents:
            raise ValueError(
                f"agent_index {agent_index} out of range for {num_agents} agents"
            )
        events = self.epoch_events(epoch, tick=False)
        n = len(events)
        lo = (agent_index * n) // num_agents
        hi = ((agent_index + 1) * n) // num_agents
        return events[lo:hi]

    def iter_epochs(
        self, epochs: int, tick: bool = True
    ) -> Iterator[Tuple[int, List[Evidence]]]:
        """Yield ``(epoch, events)`` for ``epochs`` consecutive epochs."""
        for epoch in range(epochs):
            yield epoch, self.epoch_events(epoch, tick=tick)

    def stream(self, epochs: int, tick: bool = True) -> Iterator[Evidence]:
        """The full evidence stream over ``epochs`` epochs, lazily.

        Memory stays bounded by one epoch's events; this is the
        :class:`~repro.api.service.EvidenceSource`-shaped entry point
        (``ReplayEvidenceSource(generator.stream(...))`` materializes it).
        """
        for _, events in self.iter_epochs(epochs, tick=tick):
            yield from events
