"""Unit tests for the evaluation metrics."""

from __future__ import annotations

import math

import pytest

from repro.metrics.evaluation import (
    detection_latencies,
    detection_precision_recall,
    false_alarm_rate_after_clear,
    mean_time_to_detection,
    per_epoch_detection,
    per_flow_accuracy,
    time_to_detection,
    top_k_recall,
)
from repro.topology.elements import DirectedLink, Link

A = DirectedLink("a", "b")
B = DirectedLink("c", "d")
C = DirectedLink("e", "f")


class TestDetectionPrecisionRecall:
    def test_perfect_detection(self):
        score = detection_precision_recall([A, B], [A, B])
        assert score.precision == 1.0 and score.recall == 1.0

    def test_false_positive_lowers_precision(self):
        score = detection_precision_recall([A, B, C], [A, B])
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == 1.0
        assert score.false_positives == 1

    def test_false_negative_lowers_recall(self):
        score = detection_precision_recall([A], [A, B])
        assert score.recall == pytest.approx(0.5)
        assert score.false_negatives == 1

    def test_empty_detection_with_failures(self):
        score = detection_precision_recall([], [A])
        assert score.precision == 0.0 and score.recall == 0.0

    def test_empty_detection_no_failures(self):
        score = detection_precision_recall([], [])
        assert score.precision == 1.0 and score.recall == 1.0

    def test_physical_comparison_collapses_directions(self):
        detected = [DirectedLink("b", "a")]
        truth = [DirectedLink("a", "b")]
        directed = detection_precision_recall(detected, truth)
        physical = detection_precision_recall(detected, truth, physical=True)
        assert directed.precision == 0.0
        assert physical.precision == 1.0

    def test_physical_accepts_link_objects(self):
        score = detection_precision_recall([Link.of("a", "b")], [A], physical=True)
        assert score.precision == 1.0


class TestPerFlowAccuracy:
    def test_all_correct(self):
        predicted = {1: A, 2: B}
        truth = {1: A, 2: B}
        assert per_flow_accuracy(predicted, truth) == 1.0

    def test_partial(self):
        predicted = {1: A, 2: C}
        truth = {1: A, 2: B}
        assert per_flow_accuracy(predicted, truth) == 0.5

    def test_missing_prediction_counts_as_wrong(self):
        assert per_flow_accuracy({}, {1: A}) == 0.0

    def test_none_ground_truth_excluded(self):
        predicted = {1: A}
        truth = {1: A, 2: None}
        assert per_flow_accuracy(predicted, truth) == 1.0

    def test_restrict_to(self):
        predicted = {1: A, 2: C}
        truth = {1: A, 2: B}
        assert per_flow_accuracy(predicted, truth, restrict_to=[1]) == 1.0

    def test_empty_is_nan(self):
        assert math.isnan(per_flow_accuracy({}, {}))
        assert math.isnan(per_flow_accuracy({1: A}, {1: A}, restrict_to=[99]))

    def test_physical_match(self):
        predicted = {1: DirectedLink("b", "a")}
        truth = {1: A}
        assert per_flow_accuracy(predicted, truth) == 0.0
        assert per_flow_accuracy(predicted, truth, physical=True) == 1.0


class TestTopKRecall:
    def test_defaults_to_number_of_true_links(self):
        ranked = [A, B, C]
        assert top_k_recall(ranked, [A, B]) == 1.0
        assert top_k_recall(ranked, [A, C]) == 0.5

    def test_explicit_k(self):
        ranked = [A, B, C]
        assert top_k_recall(ranked, [C], k=3) == 1.0
        assert top_k_recall(ranked, [C], k=2) == 0.0

    def test_no_true_links(self):
        assert top_k_recall([A], []) == 1.0


class TestPerEpochDetection:
    def test_each_epoch_is_scored_against_its_own_truth(self):
        # A is bad only in epoch 1: flagging it in epoch 0 is a false alarm.
        scores = per_epoch_detection([[A], [A], []], [[], [A], [B]])
        assert [(s.precision, s.recall) for s in scores] == [
            (0.0, 1.0),
            (1.0, 1.0),
            (0.0, 0.0),
        ]

    def test_physical_collapses_directions_per_epoch(self):
        reverse = DirectedLink("b", "a")
        assert per_epoch_detection([[reverse]], [[A]])[0].recall == 0.0
        assert per_epoch_detection([[reverse]], [[A]], physical=True)[0].recall == 1.0

    def test_epoch_counts_must_match(self):
        with pytest.raises(ValueError, match="epoch count mismatch"):
            per_epoch_detection([[A]], [[A], [A]])


def _timeline(epochs, bad=(), detected=()):
    """Build (detected_by_epoch, truth_by_epoch): A is bad/detected in the
    listed epochs, nothing else ever appears."""
    truth = [[A] if epoch in bad else [] for epoch in range(epochs)]
    hits = [[A] if epoch in detected else [] for epoch in range(epochs)]
    return hits, truth


class TestEpisodeAwareLatency:
    """Flapping truth: A is bad over [1, 3) and again over [5, 7) of 8 epochs."""

    FLAPPING = (1, 2, 5, 6)

    def test_detection_latencies_scores_every_episode(self):
        hits, truth = _timeline(8, bad=self.FLAPPING, detected=(2, 5))
        assert detection_latencies(hits, truth) == {A: [1, 0]}

    def test_missed_recurrence_is_recorded_not_discarded(self):
        hits, truth = _timeline(8, bad=self.FLAPPING, detected=(1,))
        assert detection_latencies(hits, truth) == {A: [0, None]}

    def test_detection_between_episodes_does_not_count(self):
        hits, truth = _timeline(8, bad=self.FLAPPING, detected=(3, 4))
        assert detection_latencies(hits, truth) == {A: [None, None]}

    def test_time_to_detection_measures_within_the_detected_episode(self):
        # detected only when the failure *returns*: latency is 0 epochs into
        # the second episode, not the 4-epoch gap-spanning distance from the
        # first-ever bad epoch.
        hits, truth = _timeline(8, bad=self.FLAPPING, detected=(5,))
        assert time_to_detection(hits, truth) == {A: 0}

    def test_time_to_detection_none_when_never_caught(self):
        hits, truth = _timeline(8, bad=self.FLAPPING, detected=())
        assert time_to_detection(hits, truth) == {A: None}

    def test_mean_counts_every_detected_episode(self):
        # caught immediately in episode 1 and one epoch late in episode 2:
        # both recurrences contribute, mean = (0 + 1) / 2.
        hits, truth = _timeline(8, bad=self.FLAPPING, detected=(1, 6))
        assert mean_time_to_detection(hits, truth) == pytest.approx(0.5)

    def test_mean_is_nan_when_no_episode_was_detected(self):
        hits, truth = _timeline(8, bad=self.FLAPPING, detected=())
        assert math.isnan(mean_time_to_detection(hits, truth))

    def test_single_window_semantics_unchanged(self):
        hits, truth = _timeline(6, bad=(2, 3), detected=(3,))
        assert detection_latencies(hits, truth) == {A: [1]}
        assert time_to_detection(hits, truth) == {A: 1}
        assert mean_time_to_detection(hits, truth) == pytest.approx(1.0)


class TestFalseAlarmAfterClear:
    FLAPPING = (1, 2, 5, 6)

    def test_gap_epochs_are_not_opportunities_by_default(self):
        # blame during the quiet gap between the two episodes: by default
        # only epoch 7 (after the *final* bad epoch) is an opportunity, and
        # it is clean.
        hits, truth = _timeline(8, bad=self.FLAPPING, detected=(3,))
        assert false_alarm_rate_after_clear(hits, truth) == 0.0

    def test_include_gaps_restores_the_strict_counting(self):
        hits, truth = _timeline(8, bad=self.FLAPPING, detected=(3,))
        # opportunities: epochs 3, 4 (the gap) and 7 (after clear); one alarm.
        rate = false_alarm_rate_after_clear(hits, truth, include_gaps=True)
        assert rate == pytest.approx(1 / 3)

    def test_stale_blame_after_final_clear_is_counted(self):
        hits, truth = _timeline(8, bad=self.FLAPPING, detected=(7,))
        assert false_alarm_rate_after_clear(hits, truth) == pytest.approx(1.0)

    def test_nan_when_no_failure_ever_clears(self):
        hits, truth = _timeline(4, bad=(2, 3), detected=())
        assert math.isnan(false_alarm_rate_after_clear(hits, truth))

    def test_single_window_semantics_unchanged(self):
        # one window [1, 3) of 5 epochs: epochs 3 and 4 are opportunities
        # under both countings.
        hits, truth = _timeline(5, bad=(1, 2), detected=(4,))
        assert false_alarm_rate_after_clear(hits, truth) == pytest.approx(0.5)
        assert false_alarm_rate_after_clear(
            hits, truth, include_gaps=True
        ) == pytest.approx(0.5)
