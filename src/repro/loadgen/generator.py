"""The synthetic evidence load generator.

:class:`EvidenceLoadGenerator` emits the event stream a fleet of 007
monitoring agents would produce on a Clos fabric — ECMP-valid discovered
paths for flows that suffered retransmissions, O(1) count bumps for flows
that retransmit again, and epoch ticks — without running the TCP simulator.
This is what lets the ruler (``ruler/``) and the hardening tests drive
:class:`~repro.api.service.Zero07Service` at fabric scale: millions of
events, deterministic per ``(seed, epoch)``, generated in seconds.

Realism knobs come from the :class:`~repro.loadgen.profiles.WorkloadProfile`
(host popularity skew, hot-ToR sinks, evidence concentration on bad links,
repeat-retransmission mix) and, for time variation, from a
:class:`~repro.netsim.script.ScenarioScript`: flap/burst/drain/reboot events
are resolved against the fabric at construction time into *bad-link windows*,
so evidence shifts onto the scripted victims during exactly the epochs the
script says — the same event vocabulary the netsim scenario engine compiles.

An epoch is generated as arrays: every flow is a row of integer columns
``(src, dst, up-T1, T2, down-T1)`` — a flow forced through a bad link is a
normal flow whose spec pins some of them — its 2/4/6-hop path is gathered
from the fabric's link-id tables (:class:`~repro.topology.clos.FabricIndex`,
the topology's ``index``), and the event objects are built once, for the
requested slice of the epoch only.  Paths share the index's one
:class:`DirectedLink` object per fabric direction, which keeps a stream's
memory small; the engines intern by value, so sharing is no speed
requirement on a source.
Every stream is reproducible: the generator draws all randomness from
``numpy`` generators keyed on ``(seed, epoch)``, so epoch ``k`` of a given
generator configuration is identical no matter which epochs were generated
before it, from which process, in which order.
"""

from __future__ import annotations

import gc
from itertools import repeat
from typing import Iterator, List, Optional, Sequence, Tuple, Union

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
    direction); ``src_candidates``/``dst_candidates`` are host-id arrays a
    flow through the link may start/end at (one host for a host link);
    ``pins`` are the switch ids the link forces into a flow's
    ``(up-T1, T2, down-T1)`` columns, -1 where the flow's own draw stands.
    """

    __slots__ = ("kind", "link", "src_candidates", "dst_candidates", "pins")

    def __init__(self, kind, link, src_candidates, dst_candidates, pins=(-1, -1, -1)):
        self.kind = kind
        self.link = link
        self.src_candidates = src_candidates
        self.dst_candidates = dst_candidates
        self.pins = pins


def _candidate(
    specs: List[_BadLinkSpec], field: str, pick: np.ndarray, draw: np.ndarray
) -> np.ndarray:
    """Host ``draw % len`` of each picked spec's ``field`` candidates."""
    arrays = [getattr(spec, field) for spec in specs]
    sizes = np.array([len(a) for a in arrays], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    return np.concatenate(arrays)[starts[pick] + draw % sizes[pick]]


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
        self._index = self._topology.index
        #: ``(src, dst)`` -> the fabric's shared link object: paths reuse
        #: them, so a stream holds one object per link however many events.
        self._links = self._index.links
        #: events an epoch emits (none without two hosts to talk)
        self._epoch_len = self._events_per_epoch if self.num_hosts >= 2 else 0
        rng = np.random.default_rng([self._seed, 0xFAB])
        self._static_specs = self._resolve_static_bad_links(rng)
        self._windows = self._resolve_script(script, rng)
        #: pure functions of the constructor arguments — computed once.
        self._weights = self._popularity_weights()
        self._hot = self._hot_hosts()

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
        return len(self._index.hosts)

    def bad_links_for_epoch(self, epoch: int) -> List[DirectedLink]:
        """The directed links evidence concentrates on during ``epoch``."""
        return [spec.link for spec in self._active_specs(epoch)]

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
        topo, index = self._topology, self._index
        all_hosts = np.arange(self.num_hosts, dtype=np.int64)
        if topo.is_host(link.src):  # host -> ToR (up)
            fixed = all_hosts == index.host_ids[link.src]
            if fixed.all():
                return None
            return _BadLinkSpec("host_up", link, all_hosts[fixed], all_hosts[~fixed])
        if topo.is_host(link.dst):  # ToR -> host (down)
            fixed = all_hosts == index.host_ids[link.dst]
            if fixed.all():
                return None
            return _BadLinkSpec("host_down", link, all_hosts[~fixed], all_hosts[fixed])

        ids = index.switch_ids
        src_switch = topo.switch(link.src)
        level = topo.link_level(link)
        if level == LinkLevel.LEVEL1:
            up = src_switch.tier == 0
            tor, t1 = (link.src, link.dst) if up else (link.dst, link.src)
            under = index.tor_hosts.get(tor, np.empty(0, np.int64))
            outside = np.setdiff1d(all_hosts, under, assume_unique=True)
            if not len(under) or not len(outside):
                return None
            if up:  # ToR -> T1: flows *from* hosts under the ToR
                return _BadLinkSpec("l1_up", link, under, outside, (ids[t1], -1, -1))
            # T1 -> ToR: the down-T1 of a cross-pod flow; the single T1 of a
            # same-pod one (``_draw_flows`` moves the pin to its up column)
            return _BadLinkSpec("l1_down", link, outside, under, (-1, -1, ids[t1]))
        if level == LinkLevel.LEVEL2:
            up = src_switch.tier == 1
            t1, t2 = (link.src, link.dst) if up else (link.dst, link.src)
            inside = index.pod_hosts[topo.switch(t1).pod]
            outside = np.setdiff1d(all_hosts, inside, assume_unique=True)
            if not len(inside) or not len(outside):
                return None
            t1, t2 = ids[t1], ids[t2]
            if up:  # T1 -> T2: cross-pod flows leaving the pod
                return _BadLinkSpec("l2_up", link, inside, outside, (t1, t2, -1))
            return _BadLinkSpec("l2_down", link, outside, inside, (-1, t2, t1))
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
    # sampling
    # ------------------------------------------------------------------
    def _popularity_weights(self) -> Optional[np.ndarray]:
        if self._profile.popularity != "zipf" or self.num_hosts < 2:
            return None
        rng = np.random.default_rng([self._seed, 0x21F])
        ranks = rng.permutation(self.num_hosts) + 1
        weights = 1.0 / np.power(ranks, self._profile.zipf_exponent)
        return weights / weights.sum()

    def _hot_hosts(self) -> Optional[np.ndarray]:
        if self._profile.hot_tor_fraction <= 0.0:
            return None
        rng = np.random.default_rng([self._seed, 0x407])
        tor_hosts = self._index.tor_hosts
        tors = sorted(tor_hosts)
        return tor_hosts[tors[int(rng.integers(0, len(tors)))]]

    def _draw_hosts(
        self, rng: np.random.Generator, count: int, weights: Optional[np.ndarray]
    ) -> np.ndarray:
        if weights is None:
            return rng.integers(0, self.num_hosts, size=count)
        return rng.choice(self.num_hosts, size=count, p=weights)

    def _draw_flows(
        self, epoch: int, count: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, ...]:
        """Draw ``count`` path flows as integer columns ``(src, dst, up, t2,
        down, retransmissions, src_port)``; ``up``/``t2``/``down`` are the
        switch ids of the flow's up-T1, T2 and down-T1 (a same-pod flow
        crosses only ``up``, a same-ToR flow none).  A bad flow is a normal
        flow whose endpoints come from its spec's candidates and whose spec
        pins some of the switch columns."""
        profile = self._profile
        specs = self._active_specs(epoch)
        src = self._draw_hosts(rng, count, self._weights)
        dst = self._draw_hosts(rng, count, self._weights)
        hot = self._hot
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
        rows = np.flatnonzero(bad)
        retrans = np.ones(count, dtype=np.int64)
        if len(rows):
            retrans[rows] = rng.integers(
                1, profile.max_initial_retransmissions + 1, size=len(rows)
            )
        ports = rng.integers(1024, 65536, size=count)

        dst = np.where(dst == src, (dst + 1) % self.num_hosts, dst)
        if len(rows):
            pick = bad_pick[rows]
            src[rows] = _candidate(specs, "src_candidates", pick, r_src[rows])
            dst[rows] = _candidate(specs, "dst_candidates", pick, r_dst[rows])
        index = self._index
        pod_src, pod_dst = index.host_pod[src], index.host_pod[dst]
        n1 = index.pod_t1.shape[1]
        up = index.pod_t1[pod_src, t1u % n1]
        t2 = index.t2[t2c % len(index.t2)]
        down = index.pod_t1[pod_dst, t1d % n1]
        if len(rows):
            pin_up, pin_t2, pin_down = np.array([s.pins for s in specs])[pick].T
            # a same-pod flow's single T1 sits in its up column
            same_pod = pod_src[rows] == pod_dst[rows]
            pin_up = np.where(same_pod & (pin_down >= 0), pin_down, pin_up)
            for column, pin in ((up, pin_up), (t2, pin_t2), (down, pin_down)):
                column[rows] = np.where(pin >= 0, pin, column[rows])
        return src, dst, up, t2, down, retrans, ports

    def _assemble(self, src, dst, up, t2, down) -> List[List[DirectedLink]]:
        """Each flow's path as a fresh list of the shared link objects: hop
        columns gathered from the link-id tables, masked to 2/4/6 hops."""
        index = self._index
        tor_src, tor_dst = index.host_tor[src], index.host_tor[dst]
        leaves_tor = tor_src != tor_dst
        cross_pod = index.host_pod[src] != index.host_pod[dst]
        link = index.switch_link
        hops = np.stack(
            [
                index.up_link[src],
                link[tor_src, up],
                link[up, np.where(cross_pod, t2, tor_dst)],
                link[t2, down],
                link[down, tor_dst],
                index.down_link[dst],
            ],
            axis=1,
        )
        keep = np.ones(hops.shape, dtype=bool)
        keep[:, 1] = keep[:, 2] = leaves_tor
        keep[:, 3] = keep[:, 4] = cross_pod
        flat = index.link_objs.take(hops[keep]).tolist()
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        return list(map(flat.__getitem__, map(slice, [0] + ends[:-1], ends)))

    def _events(self, epoch: int, lo: int, hi: int) -> List[Evidence]:
        """Events ``[lo, hi)`` of the epoch (no tick).  Every draw covers the
        whole epoch, so a slice's events do not depend on the slicing; the
        objects are built for the slice only."""
        if lo >= hi:
            return []
        rng = np.random.default_rng([self._seed, 0x5EED, int(epoch)])
        n = self._events_per_epoch
        repeats = int(n * self._profile.repeat_fraction)
        flows = self._draw_flows(epoch, n - repeats, rng)
        is_repeat = np.zeros(n, dtype=bool)
        if repeats:
            positions = rng.choice(np.arange(1, n), size=repeats, replace=False)
            is_repeat[positions] = True
        pick = rng.integers(0, np.iinfo(np.int64).max, size=n)
        extra = rng.integers(1, self._profile.max_extra_retransmissions + 1, size=n)

        path_seq = np.flatnonzero(~is_repeat)
        repeat_seq = np.flatnonzero(is_repeat)
        a, b = np.searchsorted(path_seq, (lo, hi)).tolist()
        c, d = np.searchsorted(repeat_seq, (lo, hi)).tolist()
        path_seq, repeat_seq = path_seq[a:b], repeat_seq[c:d]
        flow_base = epoch * n
        # the j-th repeat follows seq - j paths and bumps one of them
        repeat_flow = flow_base + pick[repeat_seq] % (repeat_seq - np.arange(c, d))
        src, dst, up, t2, down, retrans, ports = (column[a:b] for column in flows)
        s = self._index.host_names.take(src).tolist()
        t = self._index.host_names.take(dst).tolist()
        order = np.empty(hi - lo, dtype=np.int64)
        order[path_seq - lo] = np.arange(b - a)
        order[repeat_seq - lo] = np.arange(b - a, b - a + d - c)
        # every object below is new, acyclic and returned: a collection
        # during the build would free nothing
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            paths = map(
                DiscoveredPath,
                range(flow_base + a, flow_base + b),
                map(FiveTuple, s, t, ports.tolist(), repeat(443)),
                s,
                t,
                self._assemble(src, dst, up, t2, down),
                repeat(True),
                retrans.tolist(),
                repeat(epoch),
            )
            events: List[Evidence] = list(
                map(PathEvidence, repeat(epoch), path_seq.tolist(), paths)
            )
            events += map(
                RetransmissionEvidence,
                repeat(epoch),
                repeat_flow.tolist(),
                extra[repeat_seq].tolist(),
                repeat_seq.tolist(),
            )
            return list(map(events.__getitem__, order.tolist()))
        finally:
            if was_enabled:
                gc.enable()

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
        out = self._events(epoch, 0, self._epoch_len)
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
        process draws the whole epoch but builds event objects for its own
        slice only, and the union across agents is exactly the
        single-process stream — which is what makes a fleet run's reports
        comparable bit-for-bit against an ``ingest_batch`` replay.
        """
        if not 0 <= agent_index < num_agents:
            raise ValueError(
                f"agent_index {agent_index} out of range for {num_agents} agents"
            )
        n = self._epoch_len
        lo = (agent_index * n) // num_agents
        hi = ((agent_index + 1) * n) // num_agents
        return self._events(epoch, lo, hi)

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
