"""Unit tests for the numpy-backed analysis engine (repro.core.arrays)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregate import MultiEpochAggregator
from repro.core.analysis import AnalysisAgent, FlowCounts
from repro.core.arrays import (
    ArrayVoteTally,
    ItemIndex,
    LinkIndex,
    attribute_flow_causes_arrays,
    blame_kernel,
    failure_rows_mask,
    find_problematic_links_arrays,
    hop_rows,
    noise_split,
)
from repro.core.blame import BlameConfig, find_problematic_links
from repro.core.votes import MAX_HOPS, VOTE_UNITS, PathTooLongError, VoteTally
from repro.discovery.agent import DiscoveredPath
from repro.routing.fivetuple import FiveTuple
from repro.testing import health_records
from repro.topology.elements import DirectedLink


def L(a: str, b: str) -> DirectedLink:
    return DirectedLink(a, b)


def _path(flow_id, links, retransmissions=1):
    return DiscoveredPath(
        flow_id=flow_id,
        five_tuple=FiveTuple("a", "b", 1000 + flow_id, 443),
        src_host="a",
        dst_host="b",
        links=list(links),
        complete=True,
        retransmissions=retransmissions,
    )


def _buffers(tally: ArrayVoteTally):
    """Every buffer and accumulator of a tally, byte for byte; the hop rows
    must be those its own CSR record rebuilds."""
    flows, counts, lengths, link_ids, seqs = tally.record_columns()
    assert tally.hop_matrix().tobytes() == hop_rows(lengths, link_ids).tobytes()
    return (
        tally.hop_matrix().tobytes(),
        lengths.tobytes(),
        link_ids.tobytes(),
        flows.tobytes(),
        counts.tobytes(),
        seqs.tobytes(),
        tally.votes_array().tobytes(),
        tally.support_array().tobytes(),
        tally.voted_ids().tobytes(),
    )


class TestLinkIndex:
    def test_interns_densely_in_first_seen_order(self):
        index = LinkIndex()
        assert index.intern(L("b", "c")) == 0
        assert index.intern(L("a", "b")) == 1
        assert index.intern(L("b", "c")) == 0  # idempotent
        assert len(index) == 2
        assert index.link_of(1) == L("a", "b")
        assert L("a", "b") in index
        assert index.get(L("x", "y")) is None

    def test_bulk_interning_is_by_value_in_first_occurrence_order(self):
        index = LinkIndex([L("b", "c")])
        batch = [L("x", "y"), L("b", "c"), ("a", "b"), L("x", "y")]
        ids = index.fast_ids(batch, dtype=np.int32)
        assert ids.dtype == np.int32 and ids.tolist() == [1, 0, 2, 1]
        hops = index.hop_ids([[L("a", "b")], [L("q", "r"), L("x", "y")]], 3)
        assert hops.dtype == np.int64 and hops.tolist() == [2, 3, 1]
        assert index.links == [L("b", "c"), L("x", "y"), L("a", "b"), L("q", "r")]
        # a dict and a list (plus two derived caches): nothing keyed by id()
        assert set(vars(index)) == {"_items", "_ids", "_order", "_names"}

    @pytest.mark.parametrize("repeat", [False, True])
    def test_an_empty_index_adopts_a_table_in_one_hashing_pass(self, monkeypatch, repeat):
        """A restored link table lands in an empty index: one hash per
        link when no link repeats, first-occurrence ids when one does."""
        table = [L(f"n{k}", f"n{k + 1}") for k in range(40)]
        if repeat:
            table += [table[3], table[0]]
        hashes = []
        link_hash = DirectedLink.__hash__
        monkeypatch.setattr(
            DirectedLink, "__hash__", lambda link: hashes.append(1) or link_hash(link)
        )
        index = LinkIndex()
        live = index.links  # a holder of the live list sees it grow
        ids = index.table_ids(table)
        monkeypatch.undo()
        assert ids.tolist() == list(range(40)) + ([3, 0] if repeat else [])
        assert index.links is live and live == table[:40]
        assert [index.get(link) for link in table[:40]] == list(range(40))
        if not repeat:
            assert len(hashes) == len(table)

    def test_sort_ranks_follow_link_ordering(self):
        index = LinkIndex([L("c", "d"), L("a", "b"), L("b", "c")])
        ranks = index.sort_ranks()
        # a->b sorts first, then b->c, then c->d
        assert ranks.tolist() == [2, 0, 1]

    def test_sort_ranks_refresh_after_growth(self):
        index = LinkIndex([L("b", "c")])
        assert index.sort_ranks().tolist() == [0]
        index.intern(L("a", "b"))
        assert index.sort_ranks().tolist() == [1, 0]

    def test_sorted_topology_links_have_ids_equal_to_ranks(self, small_topology):
        index = LinkIndex(sorted(small_topology.directed_links()))
        assert len(index) == small_topology.num_links(directed=True)
        assert index.sort_ranks().tolist() == list(range(len(index)))

    def test_item_index_interns_strings(self):
        index = ItemIndex(["tor1", "t2"])
        assert index.get("tor1") == 0
        assert index.items[1] == "t2"
        assert index.sort_ranks().tolist() == [1, 0]

    @pytest.mark.parametrize("kind", ["links", "switch names"])
    def test_sort_ranks_are_the_items_own_order(self, kind):
        """Shared sources, shared destinations, names where string and
        numeric order differ."""
        import random

        nodes = [f"{tier}{pod}-{n}" for tier in ("t0", "t1", "t2") for pod in range(3) for n in (1, 2, 10)]
        if kind == "links":
            items = [L(a, b) for a in nodes for b in nodes if a != b]
            index = LinkIndex()
        else:
            items = list(nodes)
            index = ItemIndex()
        random.Random(19).shuffle(items)
        for cut in (len(items) // 3, len(items)):  # ranks are rebuilt on growth
            for item in items[:cut]:
                index.intern(item)
            position = {item: rank for rank, item in enumerate(sorted(items[:cut]))}
            assert index.sort_ranks().tolist() == [
                position[item] for item in items[:cut]
            ]


class TestArrayVoteTally:
    def test_matches_dict_tally_on_small_example(self):
        paths = [
            _path(1, [L("a", "b"), L("b", "c")]),
            _path(2, [L("b", "c"), L("c", "d")], retransmissions=3),
            _path(3, [L("a", "b")]),
        ]
        ref, arr = VoteTally(), ArrayVoteTally()
        ref.add_discovered_paths(paths)
        arr.add_discovered_paths(paths)

        assert arr.num_flows == ref.num_flows
        assert arr.total_votes() == ref.total_votes()
        assert arr.items() == ref.items()
        assert arr.links() == ref.links()
        assert arr.as_dict() == ref.as_dict()
        assert arr.top(1) == ref.top(1)
        for link in ref.links() + [L("z", "z")]:
            assert arr.votes_of(link) == ref.votes_of(link)
            assert arr.support_of(link) == ref.support_of(link)
        assert arr.contributions == ref.contributions

    def test_rejects_empty_paths_and_bad_policy(self):
        with pytest.raises(ValueError):
            ArrayVoteTally(policy="bogus")
        with pytest.raises(ValueError):
            ArrayVoteTally().add_flow(1, [])

    def test_unit_policy(self):
        tally = ArrayVoteTally(policy="unit")
        tally.add_flow(1, [L("a", "b"), L("b", "c")])
        assert tally.votes_of(L("a", "b")) == 1.0

    def test_shared_index_across_epochs(self):
        index = LinkIndex()
        first = ArrayVoteTally(index=index)
        first.add_flow(1, [L("a", "b")])
        second = ArrayVoteTally(index=index)
        second.add_flow(2, [L("b", "c")])
        # second epoch's tally must not see first epoch's votes
        assert second.votes_of(L("a", "b")) == 0.0
        assert second.votes_of(L("b", "c")) == 1.0
        assert index.get(L("a", "b")) == 0 and index.get(L("b", "c")) == 1

    def test_copy_is_independent(self):
        tally = ArrayVoteTally()
        tally.add_flow(1, [L("a", "b")])
        clone = tally.copy()
        clone.add_flow(2, [L("a", "b")])
        assert tally.votes_of(L("a", "b")) == 1.0
        assert clone.votes_of(L("a", "b")) == 2.0

    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    def test_add_columns_rejects_a_path_longer_than_eight_hops_untouched(self, engine):
        walk = [L(f"w{i}", f"w{i + 1}") for i in range(9)]
        if engine == "arrays":
            tally, hops = ArrayVoteTally(index=LinkIndex(walk)), [0, 1, *range(9)]
        else:
            tally, hops = VoteTally(), walk[:2] + walk
        with pytest.raises(PathTooLongError, match="9 links") as raised:
            tally.add_columns(hops, [2, 9], [1, 2], [1, 1])
        assert raised.value.hops == 9
        assert tally.num_flows == 0 and tally.total_votes() == 0.0

    @pytest.mark.parametrize("engine", ["dicts", "arrays"])
    def test_the_top_none_is_empty_not_all_but_the_last(self, engine):
        paths = [_path(k, [L("a", "b"), L(f"b{k % 3}", "c")]) for k in range(6)]
        report = AnalysisAgent(engine=engine).analyze_epoch(0, paths)
        assert len(report.ranked_links) == 4
        for n in (0, -1, -4):
            assert report.top_links(n) == [] and report.tally.top(n) == []
        assert report.top_links(2) == report.tally.top(2) == report.ranked_links[:2]
        assert report.top_links(9) == report.ranked_links

    def test_rank_of(self):
        tally = ArrayVoteTally()
        tally.add_flow(1, [L("a", "b")])
        tally.add_flow(2, [L("a", "b")])
        tally.add_flow(3, [L("b", "c")])
        assert tally.rank_of(L("a", "b")) == 1
        assert tally.rank_of(L("b", "c")) == 2
        assert tally.rank_of(L("x", "y")) is None


class TestBoundRows:
    """``bound_rows`` — the index a run's count updates bind through — keeps
    ``flow_rows``' rule on both engines (the catch-up over any arrival order
    is ``test_core_engine_equivalence.py``'s property)."""

    @pytest.mark.parametrize("engine", [ArrayVoteTally, VoteTally])
    def test_highest_seq_wins_and_a_tie_goes_to_the_later_row(self, engine):
        tally = engine()
        tally.add_flow(7, [L("a", "b")], seq=5)
        tally.add_flow(8, [L("a", "b")], seq=6)
        tally.add_flow(7, [L("b", "c")], seq=3)  # later, but a lower seq
        tally.add_flow(8, [L("b", "c")], seq=6)  # later, an equal seq
        flows = np.array([7, 8, 9], dtype=np.int64)
        assert tally.bound_rows(flows).tolist() == [0, 3, -1]
        assert tally.flow_rows() == {7: 0, 8: 3}


class TestArrayBlame:
    def test_dispatch_from_find_problematic_links(self):
        tally = ArrayVoteTally()
        for fid in range(5):
            tally.add_flow(fid, [L("a", "b"), L("b", "c")])
        result = find_problematic_links(tally, BlameConfig())
        assert result.detected_links  # the shared links dominate
        assert result.detected_links == find_problematic_links_arrays(tally).detected_links

    def test_empty_tally(self):
        result = find_problematic_links_arrays(ArrayVoteTally())
        assert result.detected_links == [] and result.threshold_votes == 0.0

    def test_min_flow_support_guard(self):
        tally = ArrayVoteTally()
        tally.add_flow(1, [L("a", "b")])
        config = BlameConfig(min_flow_support=2)
        assert find_problematic_links_arrays(tally, config).detected_links == []
        assert find_problematic_links(VoteTally(), config).detected_links == []


def _first_detection_per_row(indptr, cols, detected):
    """Reference for ``row_steps``: per row, the position in ``detected`` of
    the first detection it holds, ``-1`` for none."""
    return [
        min(
            (k for k, link in enumerate(detected) if link in cols[start:stop]),
            default=-1,
        )
        for start, stop in zip(indptr.tolist(), indptr[1:].tolist())
    ]


def _clamped_walk(votes, indptr, cols, weights, eligible, ranks, threshold, config):
    """Reference for :func:`blame_kernel`: Algorithm 1 with the dict engine's
    per-hop ``max(0.0, v - w)`` in (row, hop) order.  Also returns the step
    that took each row (under ``"none"``, the first detection it holds) and
    how often the clamp cut a negative value off."""
    votes, detected, votes_at, clamps = votes.tolist(), [], [], 0
    alive = [True] * (len(indptr) - 1)
    taken = [-1] * len(alive)
    while len(detected) < config.max_links:
        open_ids = [
            i for i in range(len(votes)) if eligible[i] and i not in detected
        ]
        vmax = max((votes[i] for i in open_ids), default=0.0)
        if vmax < threshold or vmax <= 0.0:
            break
        best = min((i for i in open_ids if votes[i] == vmax), key=ranks.__getitem__)
        detected.append(best)
        votes_at.append(vmax)
        for row in range(len(alive)):
            hops = cols[indptr[row] : indptr[row + 1]].tolist()
            if config.adjustment == "paths" and alive[row] and best in hops:
                alive[row] = False
                taken[row] = len(detected) - 1
                for col in hops:
                    if col != best:
                        clamps += votes[col] < weights[row]
                        votes[col] = max(0.0, votes[col] - float(weights[row]))
    if config.adjustment != "paths":
        taken = _first_detection_per_row(indptr, cols, detected)
    return detected, votes_at, np.asarray(votes), taken, clamps


class TestBlameKernel:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_clamped_walk_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        clamps = multi = 0
        for case in range(60):
            n, rows = int(rng.integers(2, 12)), int(rng.integers(1, 30))
            lengths = rng.integers(1, 9, size=rows)  # 8: a row without a pad
            indptr = np.concatenate(([0], np.cumsum(lengths)))
            cols = rng.integers(0, n, size=indptr[-1])
            looped = np.flatnonzero(lengths > 1)[::2]  # a link repeated in a path
            cols[indptr[looped] + 1] = cols[indptr[looped]]
            # per hop count: the unit policy's, or 1/h
            units = np.ones(MAX_HOPS + 1)
            if case % 3:
                units[1:] = 1.0 / np.arange(1, MAX_HOPS + 1)
            weights = units[lengths]
            votes = np.zeros(n)
            np.add.at(votes, cols, np.repeat(weights, lengths))
            if case % 2:  # below the contributions: the clamp engages mid-walk
                votes *= rng.uniform(0.2, 1.0, size=n)
            config = BlameConfig(
                threshold_fraction=float(rng.choice([0.01, 0.2])),
                max_links=int(rng.choice([2, 1000])),
                adjustment="none" if case % 10 == 9 else "paths",
            )
            args = (
                votes,
                indptr,
                cols,
                weights,
                rng.random(n) < 0.85,  # eligible mask
                rng.permutation(n),
                config.threshold_fraction * float(votes.sum()),
                config,
            )
            before = votes.tobytes()
            want_ids, want_at, want_final, want_taken, clamped = _clamped_walk(*args)
            got_ids, got_at, got_steps, got_taken = blame_kernel(
                votes, hop_rows(lengths, cols), lengths, units, *args[4:]
            )
            assert (got_ids, got_at) == (want_ids, want_at)
            assert got_steps[-1].tobytes() == want_final.tobytes()
            assert len(got_steps) == len(got_ids) + 1
            assert got_taken.tolist() == want_taken
            # whichever adjustment: the first detection the row holds
            assert want_taken == _first_detection_per_row(indptr, cols, want_ids)
            assert votes.tobytes() == before  # the input is not modified
            clamps += clamped
            multi += len(want_ids) > 2  # later detections meet dead rows
        assert clamps and multi  # the cases do reach what they are here for

    @staticmethod
    def _run(indptr, cols, units, rows, n, config, min_support, prior=None):
        """Algorithm 1 in integer units (``units[h]`` an ``h``-hop row's)
        over the first ``rows`` rows, as :func:`find_problematic_links_arrays`
        runs it: ``(ids, result)``."""
        stop = int(indptr[rows])
        lengths = np.diff(indptr[: rows + 1])
        hops = cols[:stop]
        votes = np.bincount(hops, weights=np.repeat(units[lengths], lengths), minlength=n)
        row_of = np.repeat(np.arange(rows), lengths)
        support = np.bincount(np.unique(row_of * n + hops) % n, minlength=n)
        ids = np.flatnonzero(support)
        if not votes.sum():
            return ids, ([], [], [votes], np.full(rows, -1, dtype=np.int32))
        return ids, blame_kernel(
            votes,
            hop_rows(lengths, hops),
            lengths,
            units,
            support >= min_support,
            np.arange(n)[::-1].copy(),  # ties to the larger id
            config.threshold_fraction * float(votes.sum()),
            config,
            prior,
        )

    def _assert_resumes_at_every_prefix(self, indptr, cols, units, n, config, min_support):
        """Resume from the run over every prefix — the whole run's own rows
        included: a resume over no appended rows, which a report skips (it
        reuses the prior verdict) but the kernel keeps exact; returns, per
        prefix, how many of its detections the full run repeats and whether
        a link it blamed gains votes in the appended rows."""
        rows = len(indptr) - 1
        _, fresh = self._run(indptr, cols, units, rows, n, config, min_support)
        shapes = []
        for watermark in range(rows + 1):
            ids, (detected, _, steps, taken) = self._run(
                indptr, cols, units, watermark, n, config, min_support
            )
            prior = (watermark, detected, ids, np.stack([s[ids] for s in steps]), taken)
            _, resumed = self._run(indptr, cols, units, rows, n, config, min_support, prior)
            assert resumed[:2] == fresh[:2]
            assert [s.tobytes() for s in resumed[2]] == [s.tobytes() for s in fresh[2]]
            assert resumed[3].tobytes() == fresh[3].tobytes()
            assert fresh[3].tolist() == _first_detection_per_row(
                indptr, cols, fresh[0]
            )
            same = 0
            while same < min(len(detected), len(fresh[0])) and detected[same] == fresh[0][same]:
                same += 1
            gains = bool(np.isin(cols[indptr[watermark] :], detected[:same]).any())
            shapes.append((same, same == len(detected) == len(fresh[0]), gains))
        return shapes

    @pytest.mark.parametrize("policy", ["inverse_hops", "unit"])
    def test_resuming_a_prefix_run_equals_a_fresh_run(self, policy):
        """For every watermark r, the run over all rows resumed from the run
        over the first r rows is the fresh run, step by step, whether the
        recorded detections all repeat, none does or some do."""
        rng = np.random.default_rng(37)
        followed = diverged_at_0 = diverged_later = gained = 0
        for case in range(40):
            n, rows = int(rng.integers(3, 9)), int(rng.integers(4, 24))
            lengths = rng.integers(1, 6, size=rows)
            indptr = np.concatenate(([0], np.cumsum(lengths)))
            # skewed ids: a few links collect most votes, near ties included
            cols = np.minimum(rng.geometric(0.35, size=indptr[-1]) - 1, n - 1)
            looped = np.flatnonzero(lengths > 2)[::3]
            cols[indptr[looped] + 2] = cols[indptr[looped]]
            units = ArrayVoteTally(policy=policy).units()
            config = BlameConfig(
                threshold_fraction=float(rng.choice([0.01, 0.1, 0.3])),
                max_links=int(rng.choice([2, 1000])),
                adjustment="none" if case % 10 == 9 else "paths",
            )
            for same, whole, gains in self._assert_resumes_at_every_prefix(
                indptr, cols, units, n, config, int(rng.choice([1, 2]))
            ):
                followed += whole and same > 0
                diverged_at_0 += not whole and same == 0
                diverged_later += not whole and same > 0
                gained += gains
        assert followed and diverged_at_0 and diverged_later and gained

    def test_a_near_tie_that_flips_resumes_into_the_ordinary_loop(self):
        """Links 1 and 2 a vote apart: the first detection (0) repeats and
        gains votes after the watermark, then 2 overtakes the recorded
        second detection, 1."""
        unit = float(VOTE_UNITS)
        paths = [[0, 3], [0], [0], [1], [1], [2]] + [[0], [2], [2]]
        indptr = np.concatenate(([0], np.cumsum([len(p) for p in paths])))
        cols = np.array([hop for path in paths for hop in path])
        units = np.full(MAX_HOPS + 1, unit)
        config = BlameConfig(threshold_fraction=0.01)
        shapes = self._assert_resumes_at_every_prefix(indptr, cols, units, 4, config, 1)
        assert shapes[6] == (1, False, True)  # a repeat, a gain, then a flip

    @pytest.mark.parametrize(
        "votes, weights",
        [
            (1.0, -1.0),  # a negative weight
            (-1.0, 1.0),  # negative votes: the clamp would lift them to 0
            (-0.0, 1.0),  # a clamp's 0 is +0.0
            (np.nan, 1.0),
            (np.inf, 1.0),
        ],
    )
    def test_rejects_what_the_clamp_cannot_keep(self, votes, weights):
        one = np.ones(1)
        with pytest.raises(ValueError, match="non-negative"):
            blame_kernel(
                one * votes, hop_rows([1], [0]), np.array([1]), np.array([0.0, weights]),
                one > 0, np.array([0]), 0.0, BlameConfig(),
            )


def _per_flow_by_scan(report):
    """A report's failure rows, noise split and flow causes the way they
    were derived before Algorithm 1 kept its record: one scan of every hop
    for the rows crossing a detected link."""
    tally = report.tally
    failure = failure_rows_mask(tally, report.detected_links)
    noise = noise_split(tally.flow_ids_array(), failure)
    flows, rows = tally.bound_index
    if not report._attribute_noise_flows:
        rows = rows[np.isin(flows, sorted(noise.failure_flows))]
    return failure, noise, attribute_flow_causes_arrays(tally, rows)


def _assert_per_flow_matches_the_scan(report):
    """``flow_counts()`` (read first: counted on the record alone), then
    ``noise`` and ``flow_causes`` equal the scan's."""
    failure, noise, causes = _per_flow_by_scan(report)
    assert report._failure_rows().tolist() == failure.tolist()
    assert report.flow_counts() == FlowCounts(
        len(causes), noise.num_noise, noise.num_failure
    )
    assert report._per_flow is None  # counting derived nothing per flow
    assert report.noise == noise
    assert report.flow_causes == causes


class TestFailureRowsFromTheRecord:
    """The per-flow answers read Algorithm 1's record of the rows it took
    instead of scanning every hop for the detected links."""

    @pytest.mark.parametrize("adjustment", ["paths", "none"])
    def test_random_tallies_agree_with_the_hop_scan(self, adjustment):
        rng = np.random.default_rng(53)
        links = [L(f"r{i}", f"r{i + 1}") for i in range(10)]
        seen = {"retraced": 0, "counted": 0, "none": 0, "some": 0, "resumed": 0}
        for case in range(60):
            rows = int(rng.integers(1, 50))
            flows = [
                rng.integers(0, max(2, rows // 2), size=rows),  # re-traced flows
                rng.permutation(rows),  # a row per flow, out of order
                np.arange(rows),  # a row per flow, in order
            ][case % 3]
            # skewed hops: a few links draw most of the votes
            hops = [
                np.minimum(rng.geometric(0.3, size=rng.integers(1, 6)) - 1, 9)
                for _ in range(rows)
            ]
            counts = rng.choice([1, 1, 1, 2, 3, 5], size=rows)
            config = BlameConfig(
                threshold_fraction=float(rng.choice([0.01, 0.2, 0.9])),
                adjustment=adjustment,
                min_flow_support=int(rng.choice([1, 2])),
            )
            agent = AnalysisAgent(
                blame_config=config, attribute_noise_flows=bool(case % 4 == 3)
            )
            tally, prior = ArrayVoteTally(), None
            for stop in sorted({rows, *rng.integers(1, rows + 1, size=2).tolist()}):
                for row in range(tally.num_flows, stop):
                    tally.add_flow(
                        int(flows[row]),
                        [links[i] for i in hops[row]],
                        int(counts[row]),
                    )
                # a mid-stream report resumes from the one before it
                report = agent.analyze_tally(0, tally.snapshot(), prior)
                _assert_per_flow_matches_the_scan(report)
                seen["resumed"] += prior is not None and bool(prior.detected_links)
                prior = report
            seen["retraced"] += len(set(flows.tolist())) < rows
            seen["counted"] += bool((counts > 1).any())
            seen["none" if not report.detected_links else "some"] += 1
        assert all(seen.values()), seen

    def test_a_pad_crosses_no_detected_link(self):
        """Whichever link is detected — the last interned one too, which a
        pad's ``-1`` would read without the dump slot — only the rows
        holding it fail."""
        links = [L("p", "q"), L("q", "r"), L("r", "s")]
        tally = ArrayVoteTally()
        for flow, hops in enumerate([[0, 1], [2], [1, 0, 1], [0]]):
            tally.add_flow(flow, [links[i] for i in hops])
        for k, link in enumerate(links):
            holds = [k in hops for hops in ([0, 1], [2], [1, 0, 1], [0])]
            assert failure_rows_mask(tally, [link]).tolist() == holds

    @pytest.mark.parametrize("workload", ["steady_ingest", "operator_trickle", "fleet_tcp"])
    def test_the_ruler_streams_agree_with_the_hop_scan(self, workload):
        """Each ruler workload's stream (its profile, fabric, timeline and
        events per epoch; the first three epochs) fed to a service in
        thirds: every mid-epoch report and every final one."""
        from repro.api.events import EpochTick
        from repro.api.service import Zero07Service
        from repro.fleet.runner import fleet_timeline
        from repro.loadgen import EvidenceLoadGenerator, WorkloadProfile

        fabric, profile, script, events = {
            "steady_ingest": ("medium", WorkloadProfile.skewed(), None, 40_000),
            "operator_trickle": (
                "large",
                WorkloadProfile.uniform(repeat_fraction=0.5),
                fleet_timeline("flap"),
                32_768,
            ),
            "fleet_tcp": (
                "medium",
                WorkloadProfile.hot_tor(),
                fleet_timeline("flap"),
                40_000,
            ),
        }[workload]
        generator = EvidenceLoadGenerator(
            fabric, profile, script=script, seed=3, events_per_epoch=events
        )
        service = Zero07Service()
        detected = 0
        for epoch in range(3):
            stream = generator.epoch_events(epoch, tick=False)
            for lo in range(0, len(stream), len(stream) // 3):
                service.ingest_batch(stream[lo : lo + len(stream) // 3])
                _assert_per_flow_matches_the_scan(service.report(epoch))
            service.ingest(EpochTick(epoch))
            report = service.report(epoch)
            _assert_per_flow_matches_the_scan(report)
            detected += len(report.detected_links)
        assert detected


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        AnalysisAgent(engine="array")


class TestArrayAggregator:
    def _reports(self, engine):
        agent = AnalysisAgent(engine=engine)
        paths_by_epoch = {
            0: [_path(1, [L("a", "b"), L("b", "c")], retransmissions=4),
                _path(2, [L("a", "b")], retransmissions=4)],
            1: [_path(3, [L("a", "b"), L("c", "d")], retransmissions=4),
                _path(4, [L("a", "b")], retransmissions=4)],
        }
        return [agent.analyze_epoch(epoch, paths_by_epoch[epoch]) for epoch in (0, 1)]

    @pytest.mark.parametrize("engine", ["dicts", "arrays"])
    def test_aggregates_match_across_engines(self, engine):
        reference = MultiEpochAggregator()
        aggregator = MultiEpochAggregator()
        for want, got in zip(self._reports("dicts"), self._reports(engine)):
            reference.ingest(want)
            aggregator.ingest(got)

        assert aggregator.epochs_ingested == 2
        assert aggregator.detections_per_epoch() == reference.detections_per_epoch()
        records = health_records(aggregator)
        assert records == health_records(reference)
        assert set(records) == {L("a", "b"), L("b", "c"), L("c", "d")}
        offenders = aggregator.recurrent_offenders(min_epochs_detected=2)
        assert offenders == reference.recurrent_offenders(min_epochs_detected=2)

    def test_aggregator_mixing_engines(self):
        aggregator = MultiEpochAggregator()
        dict_reports = self._reports("dicts")
        array_reports = self._reports("arrays")
        aggregator.ingest(dict_reports[0])
        aggregator.ingest(array_reports[1])
        record = health_records(aggregator).get(L("a", "b"))
        assert record is not None and record.epochs_voted == 2

    def test_aggregator_shared_index_fast_path(self):
        index = LinkIndex()
        agent = AnalysisAgent(engine="arrays", link_index=index)
        report = agent.analyze_epoch(0, [_path(1, [L("a", "b")], retransmissions=4)])
        aggregator = MultiEpochAggregator(link_index=index)
        aggregator.ingest(report)
        assert health_records(aggregator)[L("a", "b")].epochs_voted == 1


# ----------------------------------------------------------------------
# the accumulator's contract: one state, whatever the entry point and cuts
# ----------------------------------------------------------------------
try:
    from hypothesis import given, strategies as st
except ImportError:  # pragma: no cover - hypothesis is optional
    given = None

POOL = [L(f"n{i}", f"n{i + 1}") for i in range(9)]


def _add_one_by_one(tally, chunk):
    for path in chunk:
        tally.add_flow(path.flow_id, path.links, path.retransmissions)


def _add_flows(tally, chunk):
    tally.add_flows(chunk)


def _add_columns(tally, chunk):
    intern = tally.index.intern
    tally.add_columns(
        [intern(link) for path in chunk for link in path.links],
        [len(path.links) for path in chunk],
        [path.flow_id for path in chunk],
        [path.retransmissions for path in chunk],
    )


def _drive(add_chunk, paths, stops, cuts=(), actions=None):
    """Feed ``paths`` chunked at ``cuts`` and at every stop; at a stop bump
    the scripted rows, then (per ``actions``) query or snapshot.  Returns the
    tally and the ``(position, snapshot)`` pairs taken along the way."""
    tally, snapshots, done = ArrayVoteTally(), [], 0
    for stop in sorted(set(cuts) | set(stops) | {len(paths)}):
        add_chunk(tally, paths[done:stop])
        done = stop
        if stop and stop in stops:
            picks, extras = stops[stop]
            flows = [paths[pick % stop].flow_id for pick in picks]
            rows = tally.flow_rows()
            tally.bump_rows([rows.get(flow) for flow in flows], extras)
            action = actions[stop] if actions else None
            if action == "query":
                tally.votes_array()
            elif action == "snapshot":
                snapshots.append((stop, tally.snapshot()))
    return tally, snapshots


def _csr_reference(tally, paths):
    """What a tally built from ``paths`` holds, from their CSR alone:
    ``(lengths, link_ids)`` as :meth:`~ArrayVoteTally.record_columns` gives
    them back, and the votes and support of one ``bincount`` each."""
    lengths = np.array([len(path.links) for path in paths], dtype=np.int64)
    ids = np.array(
        [tally.index.get(link) for path in paths for link in path.links],
        dtype=np.int32,
    )
    n = len(tally.index)
    votes = np.bincount(ids, weights=np.repeat(VOTE_UNITS // lengths, lengths), minlength=n)
    row_of = np.repeat(np.arange(len(paths)), lengths)
    support = np.bincount(np.unique(row_of * n + ids) % n, minlength=n)
    return lengths, ids, votes, support


def _link_state(tally):
    """Index-size independent: a snapshot shares its parent's grown index."""
    link_of = tally.index.link_of
    votes, support = tally.votes_array().tolist(), tally.support_array().tolist()
    flows, counts, lengths, link_ids, seqs = tally.record_columns()
    return (
        [(link_of(i), votes[i], support[i]) for i in tally.voted_ids().tolist()],
        tally.items(),
        flows.tolist(),
        counts.tolist(),
        lengths.tolist(),
        [link_of(i) for i in link_ids.tolist()],
        seqs.tolist(),
    )


if given is not None:

    @given(
        st.lists(
            st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12),
            min_size=1,
            max_size=6,
        )
    )
    def test_merged_sort_ranks_equal_a_full_sort(batches):
        """Links interned in batches (repeats included) and ranked after
        each: the ranks merged in are those of a full sort, and the arrays
        handed out before are never written."""
        index, handed = LinkIndex(), []
        for batch in batches:
            index.fast_ids([L(f"s{a}", f"d{b}") for a, b in batch])
            ranks = index.sort_ranks()
            full = np.empty(len(index), dtype=np.int64)
            full[sorted(range(len(index)), key=index.links.__getitem__)] = np.arange(len(index))
            assert ranks.tolist() == full.tolist()
            handed.append((ranks, ranks.copy()))
        for ranks, copy in handed:
            assert ranks.tolist() == copy.tolist()

    @st.composite
    def tally_scripts(draw):
        paths = [
            _path(flow_id, [POOL[i] for i in hops], retransmissions)
            for flow_id, hops, retransmissions in draw(
                st.lists(
                    st.tuples(
                        st.integers(0, 12),  # few ids: flows get re-traced
                        st.lists(st.integers(0, 8), min_size=1, max_size=8),
                        st.integers(0, 3),
                    ),
                    min_size=1,
                    max_size=40,
                )
            )
        ]
        # always present: a flow traced twice whose second path loops back
        # over its first link (one support count per row, not per hop)...
        first = paths[0]
        paths.insert(
            draw(st.integers(1, len(paths))),
            _path(first.flow_id, [*first.links[:6], POOL[4], first.links[0]]),
        )
        # ...and a row of eight hops, no pad, over a link first seen there:
        # the index grows between appends
        eight = [POOL[i] for i in draw(st.lists(st.integers(0, 8), min_size=7, max_size=7))]
        paths.insert(
            draw(st.integers(1, len(paths))), _path(13, [*eight, L("late", "link")])
        )
        position = st.integers(0, len(paths))
        bumps = st.lists(
            st.tuples(st.integers(0, 40), st.integers(1, 5)), max_size=3
        ).map(lambda pairs: ([p for p, _ in pairs], [x for _, x in pairs]))
        stops = draw(st.dictionaries(position, bumps, max_size=6))
        variants = [
            (
                add_chunk,
                draw(st.lists(position, max_size=6)),
                {
                    stop: draw(st.sampled_from([None, "query", "snapshot"]))
                    for stop in stops
                },
            )
            for add_chunk in (_add_one_by_one, _add_flows, _add_columns)
        ]
        return paths, stops, variants

    @given(tally_scripts())
    def test_every_entry_point_and_cut_builds_the_same_tally(script):
        paths, stops, variants = script
        filler = [_path(1000 + i, [POOL[i % 9], L("x", "y")]) for i in range(1100)]
        finals = []
        for add_chunk, cuts, actions in variants:
            tally, snapshots = _drive(add_chunk, paths, stops, cuts, actions)
            finals.append((_buffers(tally), tally.items()))
            # the CSR goes in and comes back byte for byte; votes and
            # support are one bincount of it
            lengths, ids, votes, support = _csr_reference(tally, paths)
            _, _, got_lengths, got_ids, seqs = tally.record_columns()
            assert got_lengths.tobytes() == lengths.tobytes()
            assert got_ids.tobytes() == ids.tobytes()
            assert seqs.tolist() == list(range(len(paths)))
            assert tally.votes_array().tolist() == votes.tolist()
            assert tally.support_array().tolist() == support.tolist()
            add_chunk(tally, filler)  # grow the parent past a reallocation
            for position, snapshot in snapshots:
                prefix = {s: b for s, b in stops.items() if s <= position}
                scratch, _ = _drive(_add_one_by_one, paths[:position], prefix)
                assert _link_state(snapshot) == _link_state(scratch)
        assert finals[0] == finals[1] == finals[2]
        # support: a fold at every cut == one whole-epoch fold == dict engine
        cut_up, whole, reference = ArrayVoteTally(), ArrayVoteTally(), VoteTally()
        bounds = sorted({0, len(paths), *variants[0][1]})
        for start, stop in zip(bounds, bounds[1:]):
            cut_up.add_flows(paths[start:stop])
            cut_up.support_array()
        whole.add_flows(paths)
        reference.add_discovered_paths(paths)
        assert cut_up.support_array().tolist() == whole.support_array().tolist()
        assert whole.support_array().tobytes() == finals[0][0][7]
        for link in POOL:
            assert whole.support_of(link) == reference.support_of(link)
