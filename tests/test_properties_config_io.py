"""Property test: generated scenario configs round-trip through JSON text.

``ScenarioConfig`` documents carrying scripts of all seven event kinds and a
``blame`` block must survive ``json.dumps`` / ``json.loads`` and re-dump to the
same text, key order included, without the decode writing into its input.
"""

from __future__ import annotations

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.blame import BlameConfig
from repro.experiments.scenario import ScenarioConfig
from repro.netsim.script import (
    CongestionBurst,
    FabricExpansion,
    LinecardFailure,
    LinkDrain,
    LinkFlap,
    ScenarioScript,
    SwitchReboot,
    TrafficShift,
)
from repro.topology.elements import DirectedLink, Link, LinkLevel, SwitchTier

_ints = st.integers(0, 50)
_floats = st.floats(allow_nan=False, allow_infinity=False)
_names = st.sampled_from(["pod0-tor0", "pod0-t1-0", "pod1-t1-1", "t2-0", "t2-1"])
_levels = st.sampled_from(list(LinkLevel))
_tiers = st.sampled_from(list(SwitchTier))
_pair = st.one_of(_ints, st.tuples(_ints, _ints))
_EVENTS = [
    st.builds(
        LinkFlap, _ints, _ints, _floats,
        st.none() | st.builds(DirectedLink, _names, _names), st.none() | _levels,
    ),
    st.builds(CongestionBurst, _ints, _ints, _levels, _ints, _floats),
    st.builds(SwitchReboot, _ints, _ints, st.none() | _names, st.none() | _tiers),
    st.builds(
        LinkDrain, _ints, _ints,
        st.none() | st.builds(Link.of, _names, _names), st.none() | _levels,
    ),
    st.builds(
        LinecardFailure, _ints, _ints, _ints, _floats, st.booleans(),
        st.none() | _names, st.none() | _tiers,
    ),
    st.builds(FabricExpansion, _ints, st.none() | _names, st.none() | _tiers),
    st.builds(
        TrafficShift, _ints, st.sampled_from(["uniform", "skewed", "hot_tor"]),
        st.none() | _pair, st.none() | _pair, _ints, _floats, _floats,
    ),
]
#: every kind at least once, then a few more, in any order.
_scripts = st.builds(
    lambda each, more: ScenarioScript(each + more),
    st.tuples(*_EVENTS).flatmap(lambda each: st.permutations(list(each))),
    st.lists(st.one_of(*_EVENTS), max_size=4),
)
_configs = st.builds(
    ScenarioConfig,
    npod=_ints, n0=_ints, n1=_ints, n2=_ints, hosts_per_tor=_ints,
    traffic=st.sampled_from(["uniform", "skewed", "hot_tor"]),
    connections_per_host=_pair, packets_per_flow=_pair,
    num_hot_tors=_ints, hot_fraction=_floats, hot_tor_skew=_floats,
    failure_kind=st.sampled_from(["random", "skewed", "level", "none"]),
    num_bad_links=_ints,
    drop_rate_range=st.tuples(_floats, _floats),
    noise_range=st.tuples(_floats, _floats),
    failure_levels=st.none() | st.lists(_levels, max_size=4).map(tuple),
    failure_level=_levels,
    failure_downward=st.booleans(),
    dominant_drop_rate_range=st.tuples(_floats, _floats),
    minor_drop_rate_range=st.tuples(_floats, _floats),
    script=st.none() | _scripts,
    epochs=_ints, seed=st.integers(0, 2**63), use_slb=st.booleans(),
    engine=st.sampled_from(["arrays", "dicts"]),
    vote_policy=st.sampled_from(["inverse_hops", "unit"]),
    blame=st.builds(
        BlameConfig,
        st.floats(0.001, 0.999),
        st.sampled_from(["paths", "none"]),
        st.integers(1, 10),
        st.integers(1, 2000),
    ),
    simulate_setup_failures=st.booleans(),
    storage_flow_fraction=_floats,
)


@settings(derandomize=True, max_examples=60)
@given(config=_configs)
def test_generated_configs_round_trip_through_json_text(config):
    text = json.dumps(config.to_dict())
    restored = ScenarioConfig.from_dict(json.loads(text))
    assert restored == config
    assert json.dumps(restored.to_dict()) == text
    # a decode never writes into the document it reads
    document = json.loads(text)
    ScenarioConfig.from_dict(document)
    assert document == json.loads(text)
