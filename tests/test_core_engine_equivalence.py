"""Property tests: the array engine and the dict engine agree bit-for-bit.

The dict-based tally/blame pipeline is the reference oracle; the vectorized
engine must reproduce its EpochReports exactly — same detections in the same
order, same vote floats, same thresholds, same flow causes, same noise split —
on randomized tallies and on the paper's Figure 10 single-failure scenario.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.api.checkpoint import Checkpoint
from repro.api.events import (
    EpochTick,
    PathEvidence,
    RetransmissionEvidence,
    copy_evidence,
)
from repro.api.service import DetectionLogSink, Zero07Service
from repro.core.aggregate import MultiEpochAggregator
from repro.core.analysis import AnalysisAgent
from repro.core.arrays import ArrayVoteTally, LinkIndex
from repro.core.blame import BlameConfig
from repro.core.votes import VoteTally
from repro.discovery.agent import DiscoveredPath
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.fleet.analyzer import report_to_json
from repro.fleet.runner import build_generator
from repro.routing.fivetuple import FiveTuple
from repro.testing import health_records, report_signature
from repro.topology.elements import DirectedLink

try:
    from hypothesis import given, strategies as st
except ImportError:  # pragma: no cover - hypothesis is optional
    given = None


def _random_paths(rng: np.random.Generator, num_flows: int) -> list:
    """Random multi-hop paths over a small synthetic link pool."""
    nodes = [f"n{i}" for i in range(14)]
    pool = [
        DirectedLink(nodes[i], nodes[j])
        for i in range(len(nodes))
        for j in range(len(nodes))
        if i != j
    ]
    paths = []
    for flow_id in range(num_flows):
        hops = int(rng.integers(1, 7))
        chosen = rng.choice(len(pool), size=hops, replace=False)
        paths.append(
            DiscoveredPath(
                flow_id=flow_id,
                five_tuple=FiveTuple("a", "b", 1000 + flow_id, 443),
                src_host="a",
                dst_host="b",
                links=[pool[k] for k in chosen],
                complete=True,
                retransmissions=int(rng.integers(1, 5)),
            )
        )
    return paths


def assert_reports_identical(ref, got):
    """Every user-visible field of the two EpochReports must match exactly."""
    assert got.epoch == ref.epoch
    assert got.num_paths_analyzed == ref.num_paths_analyzed
    assert got.detected_links == ref.detected_links
    assert got.ranked_links == ref.ranked_links  # exact floats, exact order
    assert got.flow_causes == ref.flow_causes
    assert got.blame.votes_at_detection == ref.blame.votes_at_detection
    assert got.blame.threshold_votes == ref.blame.threshold_votes
    assert got.blame.final_votes == ref.blame.final_votes
    assert got.noise.noise_flows == ref.noise.noise_flows
    assert got.noise.failure_flows == ref.noise.failure_flows
    assert got.tally.total_votes() == ref.tally.total_votes()
    assert got.tally.items() == ref.tally.items()
    assert _link_side(got) == _link_side(ref)
    assert got.blame == ref.blame  # same class, every compared field
    assert ref.blame == got.blame


def _link_side(report):
    """The per-link tables and everything served from them, list order
    included."""
    voted = len(report.ranked_links)
    return (
        list(report.ranked_links),
        report.blame.final_votes,
        list(report.blame.votes_at_detection.items()),
        [report.top_links(n) for n in (-1, 0, 1, 10, voted + 5)],
        report.summary(),
    )


@pytest.mark.parametrize("seed", range(10))
def test_random_tallies_equivalent(seed):
    rng = np.random.default_rng(seed)
    paths = _random_paths(rng, num_flows=int(rng.integers(5, 120)))
    ref = AnalysisAgent(engine="dicts").analyze_epoch(0, paths)
    got = AnalysisAgent(engine="arrays").analyze_epoch(0, paths)
    assert_reports_identical(ref, got)


@pytest.mark.parametrize(
    "blame_kwargs",
    [
        {"adjustment": "none"},
        {"min_flow_support": 1},
        {"threshold_fraction": 0.05},
        {"max_links": 2},
    ],
)
def test_blame_config_variants_equivalent(blame_kwargs):
    rng = np.random.default_rng(99)
    paths = _random_paths(rng, num_flows=80)
    config = BlameConfig(**blame_kwargs)
    ref = AnalysisAgent(blame_config=config, engine="dicts").analyze_epoch(0, paths)
    got = AnalysisAgent(blame_config=config, engine="arrays").analyze_epoch(0, paths)
    assert_reports_identical(ref, got)


@pytest.mark.parametrize("vote_policy", ["inverse_hops", "unit"])
@pytest.mark.parametrize("attribute_noise_flows", [False, True])
def test_agent_options_equivalent(vote_policy, attribute_noise_flows):
    rng = np.random.default_rng(7)
    paths = _random_paths(rng, num_flows=60)
    kwargs = dict(
        vote_policy=vote_policy, attribute_noise_flows=attribute_noise_flows
    )
    ref = AnalysisAgent(engine="dicts", **kwargs).analyze_epoch(0, paths)
    got = AnalysisAgent(engine="arrays", **kwargs).analyze_epoch(0, paths)
    assert_reports_identical(ref, got)


def test_duplicate_links_within_a_path_equivalent():
    """A link repeated in one path votes (and is discounted) per occurrence.

    Flow 0 carries Y twice alongside the dominant link X; when Algorithm 1
    blames X, the dict engine discounts Y by 2x flow 0's weight, and the
    array kernel must do the same (a plain fancy-indexed subtraction would
    collapse the duplicate into a single discount).
    """
    X, Y, Z = (DirectedLink("a", "b"), DirectedLink("b", "c"), DirectedLink("c", "d"))
    paths = [
        _path_from_links(0, [X, Y, Y]),
        _path_from_links(1, [X, Z]),
        _path_from_links(2, [X, Z]),
        _path_from_links(3, [X, Y]),
        _path_from_links(4, [Y, Z]),
    ]
    for threshold in (0.01, 0.2, 0.35):
        config = BlameConfig(threshold_fraction=threshold)
        ref = AnalysisAgent(blame_config=config, engine="dicts").analyze_epoch(0, paths)
        got = AnalysisAgent(blame_config=config, engine="arrays").analyze_epoch(0, paths)
        assert ref.detected_links and ref.detected_links[0] == X
        assert_reports_identical(ref, got)


def _path_from_links(flow_id, links):
    return DiscoveredPath(
        flow_id=flow_id,
        five_tuple=FiveTuple("a", "b", 1000 + flow_id, 443),
        src_host="a",
        dst_host="b",
        links=list(links),
        complete=True,
        retransmissions=4,
    )


#: links interned before any test tally sees them, so a link's id does not
#: depend on the order records arrive in.
_POOL = [DirectedLink(f"n{a}", f"n{b}") for a in range(5) for b in range(5) if a != b]


def _record(flow_id, hops, retransmissions):
    path = _path_from_links(flow_id, [_POOL[k] for k in hops])
    return dataclasses.replace(path, retransmissions=retransmissions)


def _bound_seqs(tally):
    """flow id -> the seq of the record the flow is bound to."""
    seqs = tally.record_columns()[4]
    return {flow: int(seqs[row]) for flow, row in tally.flow_rows().items()}


if given is not None:

    @st.composite
    def split_epochs(draw):
        """An epoch's records (seq = position; few flow ids, so flows are
        traced again; up to 8 hops that may cross a link twice), an arrival
        order of them and a partition of that order into consecutive parts."""
        records = draw(
            st.lists(
                st.tuples(
                    st.integers(0, 9),
                    st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=8),
                    st.integers(1, 3),
                ),
                min_size=1,
                max_size=60,
            )
        )
        order = draw(st.permutations(range(len(records))))
        cuts = draw(st.lists(st.integers(0, len(records)), max_size=4))
        return [_record(*record) for record in records], order, sorted(set(cuts))

    @given(split_epochs())
    def test_any_order_and_partition_of_an_epoch_folds_to_the_same_bits(case):
        """The records in any arrival order, folded part by part into one
        tally, give the arrays of a whole-epoch fold in seq order byte for
        byte, and the same report; the dict oracle fed the arrival order
        gives equal votes (``==``) and the same report; after every part the
        sorted binding index (``bound_rows``) binds every flow as the dict
        oracle does, and a snapshot taken before a part is left alone."""
        paths, order, cuts = case
        index = LinkIndex(_POOL)
        whole = ArrayVoteTally(index=index)
        whole.add_flows(paths, list(range(len(paths))))
        merged, oracle = ArrayVoteTally(index=index), VoteTally()
        bounds = [0, *cuts, len(order)]
        for lo, hi in zip(bounds, bounds[1:]):
            before = merged.snapshot()
            frozen = (before.votes_array().tobytes(), before.num_flows)
            rows = order[lo:hi]
            merged.add_flows([paths[row] for row in rows], rows)
            oracle.add_flows([paths[row] for row in rows], rows)
            assert (before.votes_array().tobytes(), before.num_flows) == frozen
            flows = np.arange(-1, 11, dtype=np.int64)  # known and unknown ids
            assert merged.bound_rows(flows).tolist() == oracle.bound_rows(flows).tolist()

        assert merged.votes_array().tobytes() == whole.votes_array().tobytes()
        assert merged.support_array().tobytes() == whole.support_array().tobytes()
        assert merged.as_dict() == whole.as_dict() == oracle.as_dict()
        assert merged.total_votes() == whole.total_votes() == oracle.total_votes()
        assert _bound_seqs(merged) == _bound_seqs(whole) == _bound_seqs(oracle)
        agent = AnalysisAgent(engine="arrays", link_index=index)
        report, expected = agent.analyze_tally(0, merged), agent.analyze_tally(0, whole)
        assert report_to_json(report) == report_to_json(expected)
        assert report_signature(report) == report_signature(expected)
        assert report_signature(report) == report_signature(
            AnalysisAgent(engine="dicts").analyze_tally(0, oracle)
        )


def test_an_exact_tie_is_blamed_in_link_order():
    """Two links with exactly 8/3 votes each: the smaller one is blamed
    first on both engines.  As doubles, sixteen sixths (the smaller link's)
    sum to less than eight thirds (the larger one's), which blamed the larger
    link first; every other link has a single voter, so only the two can be
    blamed."""
    first, second = DirectedLink("a", "b"), DirectedLink("z", "y")
    paths = [
        _path_from_links(k, [first, *(DirectedLink(f"f{k}", f"{h}") for h in range(5))])
        for k in range(16)
    ] + [
        _path_from_links(16 + k, [second, *(DirectedLink(f"g{k}", f"{h}") for h in range(2))])
        for k in range(8)
    ]
    for engine in ("dicts", "arrays"):
        report = AnalysisAgent(engine=engine).analyze_epoch(0, paths)
        assert report.detected_links == [first, second]
        assert report.blame.votes_at_detection == {first: 8 / 3, second: 8 / 3}
        assert report.top_links(2) == [(first, 8 / 3), (second, 8 / 3)]


def test_support_counts_a_flow_once_per_link_however_often_it_crosses_it():
    """The fold finds a row's repeated links without sorting: the dict
    oracle's support on paths that cross a link twice and thrice, and on a
    walk of the longest length that votes, around a three-link loop."""
    W, X, Y, Z = (DirectedLink(f"s{i}", f"s{i + 1}") for i in range(4))
    long_walk = [DirectedLink(f"w{i % 3}", f"w{(i + 1) % 3}") for i in range(8)]
    paths = [
        _path_from_links(0, [X, Y, X]),
        _path_from_links(1, [Y, Y, Z, Y]),
        _path_from_links(2, [X, X, X]),
        _path_from_links(3, long_walk),
        _path_from_links(4, [Z, X, W, X, Z]),
        _path_from_links(5, [Y]),
        _path_from_links(6, [X, Y]),  # X, Y next to row 5's Y: other rows do not count
    ]
    oracle = VoteTally()
    oracle.add_flows(paths)
    for chunk in (len(paths), 2, 1):  # one fold, and folds that split the rows
        tally = ArrayVoteTally()
        for lo in range(0, len(paths), chunk):
            tally.add_flows(paths[lo : lo + chunk])
            tally.support_array()
        assert {
            link: tally.support_of(link) for link in tally.links()
        } == oracle.support_map()
        assert tally.as_dict() == oracle.as_dict()


def test_empty_epoch_equivalent():
    ref = AnalysisAgent(engine="dicts").analyze_epoch(3, [])
    got = AnalysisAgent(engine="arrays").analyze_epoch(3, [])
    assert_reports_identical(ref, got)


def test_multi_epoch_persistent_index_equivalent():
    """The arrays agent reuses one LinkIndex across epochs without cross-talk."""
    rng = np.random.default_rng(21)
    paths_by_epoch = {e: _random_paths(rng, 40) for e in range(4)}
    ref_agent = AnalysisAgent(engine="dicts")
    got_agent = AnalysisAgent(engine="arrays")
    for epoch, paths in paths_by_epoch.items():
        assert_reports_identical(
            ref_agent.analyze_epoch(epoch, paths), got_agent.analyze_epoch(epoch, paths)
        )


def test_fig10_single_failure_scenario_equivalent():
    """The Figure 10 setup: one injected failure, full pipeline, both engines."""
    base = dict(num_bad_links=1, epochs=2, seed=3)
    ref = run_scenario(ScenarioConfig(engine="dicts", **base))
    got = run_scenario(ScenarioConfig(engine="arrays", **base))
    assert len(ref.reports) == len(got.reports) == 2
    for ref_report, got_report in zip(ref.reports, got.reports):
        assert_reports_identical(ref_report, got_report)
    assert got.detection_007().precision == ref.detection_007().precision
    assert got.detection_007().recall == ref.detection_007().recall
    assert got.accuracy_007() == ref.accuracy_007()


# ----------------------------------------------------------------------
# per-flow fields on demand (arrays) equal the eager ones (dicts)
# ----------------------------------------------------------------------
def _retraced_stream(rng: np.random.Generator, num_flows: int) -> list:
    """Path events with every fifth flow traced a second time along other
    links with a lone retransmission, and count updates in between."""
    paths = _random_paths(rng, num_flows)
    for path in paths[::3]:
        path.retransmissions = 1  # lone drops: noise unless on a blamed link
    events = []
    for index, path in enumerate(paths):
        events.append(PathEvidence(epoch=0, seq=len(events), path=path))
        if index % 5 == 4:
            donor = paths[int(rng.integers(0, index))]
            again = dataclasses.replace(
                donor, links=list(path.links), retransmissions=1
            )
            events.append(PathEvidence(epoch=0, seq=len(events), path=again))
        if index % 7 == 6:
            flow_id = int(rng.integers(0, index))
            events.append(
                RetransmissionEvidence(
                    epoch=0, flow_id=flow_id, retransmissions=2, seq=len(events)
                )
            )
    return events


@pytest.mark.parametrize("entry", ["ingest", "ingest_batch", "restore"])
def test_interning_does_not_depend_on_link_object_identity(entry):
    """A source that builds a fresh ``DirectedLink`` per hop (as any decoder
    of a text form does) gets the report of one that shares them."""
    # no Python-level hash or compare creeps back unnoticed
    assert DirectedLink.__hash__ is tuple.__hash__ and DirectedLink.__lt__ is tuple.__lt__
    shared = _retraced_stream(np.random.default_rng(11), num_flows=150)
    fresh = [copy.deepcopy(event) for event in shared]
    hops = [link for e in fresh if type(e) is PathEvidence for link in e.path.links]
    assert len(set(map(id, hops))) == len(hops) > len(set(hops))

    def signature(engine, events):
        service = Zero07Service(engine=engine)
        events = [copy_evidence(event) for event in events]
        if entry == "ingest":
            for event in events:
                service.ingest(event)
            return report_signature(service.report(0))
        service.ingest_batch(events[: len(events) // 2])
        if entry == "restore":
            saved = service.checkpoint().to_bytes()
            service = Zero07Service.restore(Checkpoint.from_bytes(saved))
        service.ingest_batch(events[len(events) // 2 :])
        return report_signature(service.report(0))

    expected = signature("arrays", shared)
    assert expected[1]  # something was detected
    assert signature("arrays", fresh) == expected == signature("dicts", fresh)


def _per_flow(report):
    return (
        dict(report.flow_causes),
        report.noise.noise_flows,
        report.noise.failure_flows,
        tuple(report.flow_counts()),
    )


def _reports_held_unread(seed, monkeypatch):
    """``(arrays report nobody has read, what an arrays report read at once
    said per flow, the dict oracle's report)`` after each of four deliveries
    (one out of order) and after the tick — handed back once a next epoch
    has grown the link index with links that sort first and the live
    index's ``sort_ranks`` has been made to raise."""
    rng = np.random.default_rng(seed)
    events = _retraced_stream(rng, num_flows=150)
    a, b, c = len(events) // 3, len(events) // 2, 3 * len(events) // 4
    deliveries = [events[:a], events[b:c], events[a:b], events[c:]]  # one swapped
    late = Zero07Service(engine="arrays")
    at_once = Zero07Service(engine="arrays")
    oracle = Zero07Service(engine="dicts")
    held = []
    for run in deliveries:
        for service in (late, at_once, oracle):
            service.ingest_batch([copy_evidence(event) for event in run])
        now = _per_flow(at_once.report(0))
        assert now == _per_flow(oracle.report(0))
        held.append((late.report(0), now, oracle.report(0)))
    assert late.stats.out_of_order_events > 0  # the swap forced a permutation
    for service in (late, at_once, oracle):
        service.ingest(EpochTick(0))
        # the next epoch grows the shared link index under the old reports,
        # with links that sort before every one of theirs
        first = dataclasses.replace(
            events[0].path, links=[DirectedLink("a", "b"), DirectedLink("b", "c")]
        )
        service.ingest_batch([PathEvidence(epoch=1, seq=0, path=first)])
    final = _per_flow(at_once.report(0))
    assert final == _per_flow(oracle.report(0))
    held.append((late.report(0), final, oracle.report(0)))
    noise, failure = final[1], final[2]
    assert noise & failure  # a re-traced flow sits in both
    assert final[3] == (len(final[0]), len(noise), len(failure))
    index = late.report(1).tally.index
    assert index.sort_ranks()[index.get(DirectedLink("a", "b"))] == 0

    def live_ranks():
        raise AssertionError("a late read took sort ranks from the live index")

    monkeypatch.setattr(index, "sort_ranks", live_ranks)
    for report, _, _ in held:
        assert report.tally.index is index
        assert len(report.blame.arrays.sort_ranks) < len(index)  # it grew since
    assert len({id(report) for report, _, _ in held}) == len(held)
    return held


@pytest.mark.parametrize("seed", range(4))
def test_per_flow_fields_read_late_equal_those_read_at_once(seed, monkeypatch):
    for report, expected, _ in _reports_held_unread(seed, monkeypatch):
        assert report._per_flow is None  # not derived until somebody asks
        assert tuple(report.flow_counts()) == expected[3]
        assert report._per_flow is None  # and counting does not derive
        assert _per_flow(report) == expected


def _tables_unbuilt(report) -> bool:
    return report._ranked is None and report.blame._final is None


@pytest.mark.parametrize("seed", range(4))
def test_per_link_tables_read_late_equal_the_dict_oracles(seed, monkeypatch):
    held = _reports_held_unread(seed, monkeypatch)
    assert any(len(oracle.blame.detected_links) > 1 for _, _, oracle in held)
    for report, _, oracle in held:
        assert _tables_unbuilt(report)  # not derived until somebody asks
        # what is sliced off the ranked ids leaves them unbuilt
        assert report.top_links(10) == oracle.top_links(10)
        assert report.top_links(0) == report.top_links(-1) == []
        assert report.summary() == oracle.summary()
        assert report.detected_links == oracle.detected_links
        assert _tables_unbuilt(report)
        assert _link_side(report) == _link_side(oracle)
        assert report.blame == oracle.blame
        assert report.ranked_links is report.ranked_links
        assert report.blame.final_votes is report.blame.final_votes


def test_a_report_and_a_tick_do_no_per_link_work(monkeypatch):
    """The ruler's ``large`` fabric: ~2.8k voted links, a couple of detections.
    At the parent a cold report hashed and looked up every voted link twice."""
    events = build_generator("large", "uniform", "flap", 5, 8_192).epoch_events(
        0, tick=False
    )
    service = Zero07Service(engine="arrays", sinks=[DetectionLogSink()])
    service.ingest_batch(events[:6_000])
    service.report(0)
    service.ingest_batch(events[6_000:])  # warm: every link object is interned

    calls = Counter()
    link_hash, link_of = DirectedLink.__hash__, LinkIndex.link_of

    def counted_hash(link):
        calls["hash"] += 1
        return link_hash(link)

    def counted_link_of(index, lid):
        calls["link_of"] += 1
        return link_of(index, lid)

    monkeypatch.setattr(DirectedLink, "__hash__", counted_hash)
    monkeypatch.setattr(LinkIndex, "link_of", counted_link_of)
    cold = service.report(0)
    assert len(cold.blame.arrays.ids) > 2_500
    assert cold.detected_links
    assert sum(calls.values()) <= 4 * len(cold.detected_links)
    calls.clear()
    service.ingest(EpochTick(0))
    final = service.report(0)
    assert final is not cold and final.detected_links
    assert sum(calls.values()) <= 4 * len(final.detected_links)
    monkeypatch.undo()

    aggregator = MultiEpochAggregator()
    for report in (cold, final):
        assert report.summary().startswith("epoch 0: ")
        assert len(report.top_links(10)) == 10
        aggregator.ingest(report)
        assert len(report_to_json(report)["signature"][9]) == len(cold.blame.arrays.ids)
        assert _tables_unbuilt(report)
    top = max(record.max_votes for record in health_records(aggregator).values())
    assert top == final.ranked_links[0][1]


@pytest.mark.parametrize("num_flows", [200, 0])
def test_a_report_can_be_pickled_and_copied_before_and_after_the_first_read(
    num_flows,
):
    paths = _random_paths(np.random.default_rng(6), num_flows=num_flows)
    report = AnalysisAgent(engine="arrays").analyze_epoch(0, paths)
    oracle = AnalysisAgent(engine="dicts").analyze_epoch(0, paths)
    unread = pickle.loads(pickle.dumps(report)), copy.deepcopy(report)
    assert all(_tables_unbuilt(twin) and twin._per_flow is None for twin in unread)
    expected = report_signature(report)  # forces
    assert expected == report_signature(oracle)
    read = pickle.loads(pickle.dumps(report)), copy.deepcopy(report)
    assert not any(_tables_unbuilt(twin) for twin in read)
    for twin in unread + read:
        assert report_signature(twin) == expected
        assert _link_side(twin) == _link_side(oracle)
        assert twin.blame == oracle.blame


def test_threads_forcing_one_report_get_the_identical_objects():
    rng = np.random.default_rng(5)
    paths = _random_paths(rng, num_flows=400)
    agent = AnalysisAgent(engine="arrays")
    threads_per_report = 6
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(25):
            report = agent.analyze_epoch(0, paths)
            barrier = threading.Barrier(threads_per_report)
            seen = []

            def force(index):
                barrier.wait(timeout=10)
                if index % 2:
                    seen.append(
                        (
                            report.noise,
                            report.flow_causes,
                            report.ranked_links,
                            report.blame.final_votes,
                        )
                    )
                else:
                    final, causes = report.blame.final_votes, report.flow_causes
                    seen.append((report.noise, causes, report.ranked_links, final))

            threads = [
                threading.Thread(target=force, args=(index,))
                for index in range(threads_per_report)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert len(seen) == threads_per_report
            for forced in seen:
                assert all(mine is first for mine, first in zip(forced, seen[0]))
    finally:
        sys.setswitchinterval(interval)
