"""Tests for the synthetic evidence load generator (``repro.loadgen``)."""

from __future__ import annotations

import math
import pickle
import random

import numpy as np
import pytest

from repro.api import EpochTick, PathEvidence, RetransmissionEvidence, Zero07Service
from repro.discovery.agent import DiscoveredPath
from repro.loadgen import (
    FABRIC_PRESETS,
    EvidenceLoadGenerator,
    WorkloadProfile,
    fabric_parameters,
)
from repro.netsim.script import FabricExpansion, ScenarioScript, TrafficShift
from repro.routing.fivetuple import FiveTuple
from repro.topology.clos import ClosParameters, ClosTopology
from repro.topology.elements import LinkLevel, SwitchTier


def make_generator(**overrides):
    defaults = dict(
        fabric="tiny",
        profile=WorkloadProfile.skewed(hot_tor_fraction=0.3),
        seed=7,
        events_per_epoch=400,
    )
    defaults.update(overrides)
    return EvidenceLoadGenerator(**defaults)


class TestProfilesAndPresets:
    def test_fabric_parameters_resolves_presets_and_passthrough(self):
        assert fabric_parameters("medium") == FABRIC_PRESETS["medium"]
        custom = ClosParameters(npod=2, n0=2, n1=2, n2=2, hosts_per_tor=1)
        assert fabric_parameters(custom) is custom
        with pytest.raises(ValueError, match="unknown fabric preset"):
            fabric_parameters("galactic")

    def test_named_profiles(self):
        assert WorkloadProfile.named("uniform").popularity == "uniform"
        assert WorkloadProfile.named("skewed").popularity == "zipf"
        assert WorkloadProfile.named("hot-tor").hot_tor_fraction > 0
        with pytest.raises(ValueError, match="unknown workload profile"):
            WorkloadProfile.named("bursty")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(popularity="pareto"),
            dict(hot_tor_fraction=1.5),
            dict(bad_path_fraction=-0.1),
            dict(repeat_fraction=1.0),
            dict(num_bad_links=-1),
            dict(max_initial_retransmissions=0),
            dict(max_extra_retransmissions=0),
            dict(popularity="zipf", zipf_exponent=math.nan),
            dict(popularity="zipf", zipf_exponent=-math.inf),
        ],
    )
    def test_profile_validation(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadProfile(**kwargs)


class TestStreamShape:
    def test_deterministic_per_seed_and_epoch(self):
        a = make_generator().epoch_events(3)
        b = make_generator().epoch_events(3)
        assert a == b
        # epoch k is independent of which epochs were generated before it
        generator = make_generator()
        generator.epoch_events(0)
        assert generator.epoch_events(3) == a
        assert make_generator(seed=8).epoch_events(3) != a

    def test_sequence_numbers_are_dense_and_ordered(self):
        events = make_generator().epoch_events(0)
        assert isinstance(events[-1], EpochTick)
        seqs = [e.seq for e in events[:-1]]
        assert seqs == list(range(len(seqs)))

    def test_event_mix_matches_profile(self):
        profile = WorkloadProfile(repeat_fraction=0.25)
        events = make_generator(profile=profile, events_per_epoch=1000).epoch_events(
            0, tick=False
        )
        repeats = sum(1 for e in events if isinstance(e, RetransmissionEvidence))
        assert repeats == 250
        # every repeat targets a flow whose path evidence came earlier
        seen = set()
        for event in events:
            if isinstance(event, PathEvidence):
                seen.add(event.path.flow_id)
            else:
                assert event.flow_id in seen

    def test_paths_are_fabric_valid_ecmp_walks(self):
        generator = make_generator(fabric="small", events_per_epoch=600)
        topology = ClosTopology(generator.params)
        valid = {(l.src, l.dst) for l in topology.directed_links()}
        for event in generator.epoch_events(0, tick=False):
            if not isinstance(event, PathEvidence):
                continue
            path = event.path
            assert path.links, "paths must carry at least one link"
            assert path.links[0].src == path.src_host
            assert path.links[-1].dst == path.dst_host
            previous = None
            for link in path.links:
                assert (link.src, link.dst) in valid
                if previous is not None:
                    assert previous.dst == link.src
                previous = link
            assert len(path.links) in (2, 4, 6)

    def test_evidence_concentrates_on_bad_links(self):
        generator = make_generator(
            fabric="small",
            profile=WorkloadProfile(bad_path_fraction=0.5, repeat_fraction=0.0),
            events_per_epoch=800,
        )
        bad = set(generator.bad_links_for_epoch(0))
        assert bad
        through_bad = sum(
            1
            for e in generator.epoch_events(0, tick=False)
            if any(link in bad for link in e.path.links)
        )
        # at least the forced fraction crosses a bad link (random paths add more)
        assert through_bad >= 0.45 * 800

    def test_stream_is_lazy_and_ticks_every_epoch(self):
        generator = make_generator(events_per_epoch=50)
        events = list(generator.stream(3))
        assert sum(1 for e in events if isinstance(e, EpochTick)) == 3
        assert events == [e for _, batch in generator.iter_epochs(3) for e in batch]


class TestDegenerateFabrics:
    def test_single_host_fabric_emits_only_ticks(self):
        params = ClosParameters(npod=1, n0=1, n1=1, n2=1, hosts_per_tor=1)
        generator = EvidenceLoadGenerator(params, seed=0, events_per_epoch=100)
        events = generator.epoch_events(0)
        assert events == [EpochTick(0)]

    def test_single_pod_fabric_never_picks_level2_bad_links(self):
        params = ClosParameters(npod=1, n0=3, n1=2, n2=2, hosts_per_tor=2)
        generator = EvidenceLoadGenerator(
            params,
            profile=WorkloadProfile(num_bad_links=4),
            seed=1,
            events_per_epoch=200,
        )
        topology = ClosTopology(params)
        for link in generator.bad_links_for_epoch(0):
            assert topology.link_level(link) != LinkLevel.LEVEL2
        # and the stream still analyses cleanly end to end
        service = Zero07Service()
        service.ingest_batch(generator.epoch_events(0))
        assert service.report(0).num_paths_analyzed > 0

    def test_zero_events_per_epoch(self):
        generator = make_generator(events_per_epoch=0)
        assert generator.epoch_events(0) == [EpochTick(0)]
        with pytest.raises(ValueError):
            make_generator(events_per_epoch=-1)


class TestScriptWindows:
    def test_flap_window_adds_and_removes_bad_links(self):
        script = ScenarioScript().flap(
            start=2, duration=2, drop_rate=0.01, level=LinkLevel.LEVEL1
        )
        generator = make_generator(
            script=script, profile=WorkloadProfile(num_bad_links=0)
        )
        assert generator.bad_links_for_epoch(0) == []
        assert generator.bad_links_for_epoch(4) == []
        assert len(generator.bad_links_for_epoch(2)) == 1
        assert len(generator.bad_links_for_epoch(3)) == 1

    def test_burst_and_drain_and_reboot_vocabulary(self):
        script = (
            ScenarioScript()
            .burst(start=1, duration=1, level=LinkLevel.LEVEL2, num_links=2)
            .drain(start=3, duration=1, level=LinkLevel.LEVEL1)
            .reboot_switch(epoch=5, tier=SwitchTier.T1, outage_epochs=1)
        )
        generator = make_generator(fabric="small", script=script)
        base = len(generator.bad_links_for_epoch(0))
        assert len(generator.bad_links_for_epoch(1)) == base + 2
        # drains take both directions of the physical link down
        assert len(generator.bad_links_for_epoch(3)) == base + 2
        # a rebooting switch blackholes every adjacent link, both directions
        topology = ClosTopology(generator.params)
        reboot_extra = len(generator.bad_links_for_epoch(5)) - base
        assert reboot_extra > 0 and reboot_extra % 2 == 0

    def test_scripted_victims_shift_the_evidence(self):
        script = ScenarioScript().flap(
            start=1, duration=1, drop_rate=0.01, level=LinkLevel.LEVEL1
        )
        generator = make_generator(
            fabric="small",
            script=script,
            profile=WorkloadProfile(bad_path_fraction=0.6, repeat_fraction=0.0),
            events_per_epoch=600,
        )
        [victim] = set(generator.bad_links_for_epoch(1)) - set(
            generator.bad_links_for_epoch(0)
        )
        def crossings(epoch):
            return sum(
                1
                for e in generator.epoch_events(epoch, tick=False)
                if victim in e.path.links
            )
        assert crossings(1) > 3 * max(1, crossings(0))


class PerFlowReference:
    """The generator's former per-flow assembly, kept as its oracle.

    It replays the generator's RNG draws for an epoch and routes one flow at
    a time: tuple-keyed lookups into the generator's shared link objects,
    one hand-written branch per bad-link kind.  ``kinds`` collects the spec
    kinds its bad flows went through.
    """

    def __init__(self, generator):
        topo = ClosTopology(generator.params)
        self.gen = generator
        self.topo = topo
        self.links = generator._links
        # host fields hold the very strings of the shared links, so a pickled
        # stream refers back to them
        names = {name: name for link in self.links for name in link}
        self.hosts = [names[h] for h in sorted(topo.hosts)]
        self.host_ids = {h: i for i, h in enumerate(self.hosts)}
        self.host_tor = [topo.host(h).tor for h in self.hosts]
        self.host_pod = [topo.host(h).pod for h in self.hosts]
        self.pod_t1 = [
            [s.name for s in topo.tier1s(pod)] for pod in range(generator.params.npod)
        ]
        self.t2 = [s.name for s in topo.tier2s()]
        self.kinds = set()

    def normal_path(self, src_i, dst_i, t1u, t2c, t1d):
        links, hosts = self.links, self.hosts
        s, d = hosts[src_i], hosts[dst_i]
        st, dt = self.host_tor[src_i], self.host_tor[dst_i]
        if st == dt:
            return [links[(s, st)], links[(st, d)]]
        sp, dp = self.host_pod[src_i], self.host_pod[dst_i]
        t1 = self.pod_t1[sp][t1u % len(self.pod_t1[sp])]
        if sp == dp:
            return [links[(s, st)], links[(st, t1)], links[(t1, dt)], links[(dt, d)]]
        t2 = self.t2[t2c % len(self.t2)]
        t1b = self.pod_t1[dp][t1d % len(self.pod_t1[dp])]
        return [
            links[(s, st)], links[(st, t1)], links[(t1, t2)],
            links[(t2, t1b)], links[(t1b, dt)], links[(dt, d)],
        ]

    def bad_path(self, spec, r_src, r_dst, t1u, t2c, t1d):
        links, hosts = self.links, self.hosts
        kind, (a, b) = spec.kind, spec.link
        self.kinds.add(kind)
        if kind == "host_up":
            src_i = self.host_ids[a]
            dst_i = int(spec.dst_candidates[r_dst % len(spec.dst_candidates)])
            return src_i, dst_i, self.normal_path(src_i, dst_i, t1u, t2c, t1d)
        if kind == "host_down":
            dst_i = self.host_ids[b]
            src_i = int(spec.src_candidates[r_src % len(spec.src_candidates)])
            return src_i, dst_i, self.normal_path(src_i, dst_i, t1u, t2c, t1d)
        src_i = int(spec.src_candidates[r_src % len(spec.src_candidates)])
        dst_i = int(spec.dst_candidates[r_dst % len(spec.dst_candidates)])
        s, d = hosts[src_i], hosts[dst_i]
        st, dt = self.host_tor[src_i], self.host_tor[dst_i]
        sp, dp = self.host_pod[src_i], self.host_pod[dst_i]
        t2_any = self.t2[t2c % len(self.t2)]
        up_any = self.pod_t1[sp][t1u % len(self.pod_t1[sp])]
        down_any = self.pod_t1[dp][t1d % len(self.pod_t1[dp])]
        if kind == "l1_up":
            tor, t1 = a, b
            if dp == self.topo.switch(tor).pod:
                path = [(s, tor), (tor, t1), (t1, dt), (dt, d)]
            else:
                path = [(s, tor), (tor, t1), (t1, t2_any), (t2_any, down_any),
                        (down_any, dt), (dt, d)]
        elif kind == "l1_down":
            t1, tor = a, b
            if sp == self.topo.switch(tor).pod:
                path = [(s, st), (st, t1), (t1, tor), (tor, d)]
            else:
                path = [(s, st), (st, up_any), (up_any, t2_any), (t2_any, t1),
                        (t1, tor), (tor, d)]
        elif kind == "l2_up":
            t1, t2 = a, b
            path = [(s, st), (st, t1), (t1, t2), (t2, down_any), (down_any, dt),
                    (dt, d)]
        else:  # l2_down
            t2, t1 = a, b
            path = [(s, st), (st, up_any), (up_any, t2), (t2, t1), (t1, dt),
                    (dt, d)]
        return src_i, dst_i, [links[hop] for hop in path]

    def make_paths(self, epoch, count, rng):
        gen, profile = self.gen, self.gen.profile
        specs = gen._active_specs(epoch)
        weights, hot, num_hosts = gen._weights, gen._hot, len(self.hosts)

        def draw_hosts():
            if weights is None:
                return rng.integers(0, num_hosts, size=count)
            return rng.choice(num_hosts, size=count, p=weights)

        src, dst = draw_hosts(), draw_hosts()
        if hot is not None:
            sink = rng.random(count) < profile.hot_tor_fraction
            dst[sink] = hot[rng.integers(0, len(hot), size=int(sink.sum()))]
        t1u, t2c, t1d, r_src, r_dst = rng.integers(
            0, np.iinfo(np.int64).max, size=(5, count)
        )
        if specs:
            bad = rng.random(count) < profile.bad_path_fraction
            bad_pick = rng.integers(0, len(specs), size=count)
        else:
            bad = np.zeros(count, dtype=bool)
        retrans = np.ones(count, dtype=np.int64)
        if bad.any():
            retrans[bad] = rng.integers(
                1, profile.max_initial_retransmissions + 1, size=int(bad.sum())
            )
        ports = rng.integers(1024, 65536, size=count)
        paths = []
        for i in range(count):
            draws = int(t1u[i]), int(t2c[i]), int(t1d[i])
            if bad[i]:
                src_i, dst_i, links = self.bad_path(
                    specs[bad_pick[i]], int(r_src[i]), int(r_dst[i]), *draws
                )
            else:
                src_i, dst_i = int(src[i]), int(dst[i])
                if dst_i == src_i:
                    dst_i = (dst_i + 1) % num_hosts
                links = self.normal_path(src_i, dst_i, *draws)
            s, d = self.hosts[src_i], self.hosts[dst_i]
            paths.append(
                DiscoveredPath(
                    flow_id=epoch * gen.events_per_epoch + i,
                    five_tuple=FiveTuple(
                        src_ip=s, dst_ip=d, src_port=int(ports[i]), dst_port=443
                    ),
                    src_host=s,
                    dst_host=d,
                    links=links,
                    complete=True,
                    retransmissions=int(retrans[i]),
                    epoch=epoch,
                )
            )
        return paths

    def epoch_events(self, epoch):
        gen = self.gen
        n = gen.events_per_epoch
        if n <= 0 or len(self.hosts) < 2:
            return []
        rng = np.random.default_rng([gen._seed, 0x5EED, epoch])
        repeats = int(n * gen.profile.repeat_fraction)
        paths = iter(self.make_paths(epoch, n - repeats, rng))
        is_repeat = np.zeros(n, dtype=bool)
        if repeats:
            is_repeat[rng.choice(np.arange(1, n), size=repeats, replace=False)] = True
        pick = rng.integers(0, np.iinfo(np.int64).max, size=n)
        extra = rng.integers(1, gen.profile.max_extra_retransmissions + 1, size=n)
        emitted, out = [], []
        for seq in range(n):
            if is_repeat[seq]:
                flow_id = emitted[int(pick[seq]) % len(emitted)]
                out.append(
                    RetransmissionEvidence(epoch, flow_id, int(extra[seq]), seq)
                )
            else:
                path = next(paths)
                emitted.append(path.flow_id)
                out.append(PathEvidence(epoch=epoch, seq=seq, path=path))
        return out


ALL_KINDS = {"host_up", "host_down", "l1_up", "l1_down", "l2_up", "l2_down"}
#: fabric -> the bad-link kinds its flows can cross (no level-2 flow inside
#: one pod, no flow at all with one host).
REFERENCE_FABRICS = {
    "tiny": ("tiny", ALL_KINDS),
    "small": ("small", ALL_KINDS),
    "one-pod": (
        ClosParameters(npod=1, n0=3, n1=2, n2=2, hosts_per_tor=2),
        ALL_KINDS - {"l2_up", "l2_down"},
    ),
    "one-host": (ClosParameters(npod=1, n0=1, n1=1, n2=1, hosts_per_tor=1), set()),
}


def random_profile(rng):
    return WorkloadProfile(
        popularity=rng.choice(["uniform", "zipf"]),
        zipf_exponent=rng.uniform(0.2, 2.0),
        hot_tor_fraction=rng.choice([0.0, rng.random()]),
        num_bad_links=rng.randrange(0, 6),
        bad_path_fraction=rng.random(),
        max_initial_retransmissions=rng.randrange(1, 5),
        repeat_fraction=rng.choice([0.0, rng.uniform(0.0, 0.9)]),
        max_extra_retransmissions=rng.randrange(1, 5),
    )


def every_event_kind_script(rng, topology):
    """One script event of each kind, each live during some of epochs 0-3.

    Burst and linecard counts are clamped to the fewest links a level or a
    switch they may land on has: the resolver refuses a script asking for
    more (the one-host fabric holds two directed links per level)."""
    start = lambda: rng.randrange(0, 3)  # noqa: E731
    tiers = list(SwitchTier)[:3]
    burst_max = min(
        2 * len(topology.links_of_level(level))
        for level in (LinkLevel.LEVEL1, LinkLevel.LEVEL2)
    )
    linecard_max = min(
        len(topology.links_of_node(switch.name))
        for tier in tiers
        for switch in topology.switches_of_tier(tier)
    )
    return (
        ScenarioScript()
        .flap(start(), 2, level=rng.choice(list(LinkLevel)[:3]))
        .burst(start(), 2, level=rng.choice([LinkLevel.LEVEL1, LinkLevel.LEVEL2]),
               num_links=min(rng.randrange(1, 4), burst_max))
        .drain(start(), 2, level=rng.choice(list(LinkLevel)[:3]))
        .reboot_switch(start(), tier=rng.choice(tiers))
        .linecard(start(), 2, num_links=min(rng.randrange(1, 4), linecard_max),
                  tier=rng.choice(tiers))
        .add(FabricExpansion(epoch=rng.randrange(1, 4), tier=rng.choice(tiers)))
        .add(TrafficShift(epoch=start()))
    )


def check_against_reference(generator, reference, epoch):
    events = generator.epoch_events(epoch, tick=False)
    expected = reference.epoch_events(epoch)
    assert events == expected
    assert pickle.dumps(events) == pickle.dumps(expected)
    paths = [e.path for e in events if type(e) is PathEvidence]
    assert len({id(p.links) for p in paths}) == len(paths)
    for event in events:
        ints = [event.epoch, event.seq]
        if type(event) is PathEvidence:
            p, t = event.path, event.path.five_tuple
            ints += [p.flow_id, p.retransmissions, p.epoch, t.src_port, t.dst_port,
                     t.protocol]
            assert all(reference.links[link] is link for link in p.links)
        else:
            ints += [event.flow_id, event.retransmissions]
        assert all(type(x) is int for x in ints)


class TestArrayGeneratorMatchesPerFlowReference:
    @pytest.mark.parametrize("name", sorted(REFERENCE_FABRICS))
    def test_random_profiles_seeds_and_scripts(self, name):
        fabric, expected_kinds = REFERENCE_FABRICS[name]
        rng = random.Random(name)
        kinds = set()
        topology = ClosTopology(fabric_parameters(fabric))
        for _ in range(6):
            script = every_event_kind_script(rng, topology) if rng.random() < 0.7 else None
            generator = EvidenceLoadGenerator(
                fabric,
                random_profile(rng),
                script=script,
                seed=rng.randrange(1 << 32),
                events_per_epoch=rng.choice([1, 2, 97, 500]),
            )
            reference = PerFlowReference(generator)
            for epoch in range(4):
                check_against_reference(generator, reference, epoch)
            kinds |= reference.kinds
        assert kinds == expected_kinds

    def test_ruler_shaped_epoch(self):
        generator = EvidenceLoadGenerator(
            "medium", WorkloadProfile.skewed(), seed=0, events_per_epoch=4_000
        )
        check_against_reference(generator, PerFlowReference(generator), 2)

    @pytest.mark.parametrize("num_agents", [1, 2, 3, 4])
    def test_agent_slices_partition_the_epoch(self, num_agents):
        generator = make_generator(
            script=ScenarioScript().flap(start=1, duration=1, level=LinkLevel.LEVEL1),
            events_per_epoch=401,
        )
        for epoch in (0, 1):
            whole = generator.epoch_events(epoch, tick=False)
            slices = []
            for index in range(num_agents):
                lo = (index * len(whole)) // num_agents
                hi = ((index + 1) * len(whole)) // num_agents
                part = generator.agent_events(epoch, index, num_agents)
                assert part == whole[lo:hi]
                slices.extend(part)
            assert slices == whole
        with pytest.raises(ValueError, match="out of range"):
            generator.agent_events(0, num_agents, num_agents)
