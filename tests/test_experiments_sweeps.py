"""Tests for the figure matrix's metric registries (``repro.experiments.sweeps``).

Every registry entry must read the score it is named after: a metric wired to
the wrong accessor would silently put one curve in another's column of every
regenerated figure.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.api.service import CallbackSink
from repro.experiments import sweeps
from repro.experiments.scenario import ScenarioConfig, run_scenario, stream_scenario

#: two failed links on a small fabric, detected in both epochs.
CONFIG = ScenarioConfig(
    npod=2,
    n0=4,
    n1=2,
    n2=2,
    hosts_per_tor=2,
    connections_per_host=40,
    num_bad_links=2,
    drop_rate_range=(2e-2, 2e-2),
    seed=5,
    epochs=2,
)


@pytest.fixture(scope="module")
def result():
    return run_scenario(CONFIG)


def _same(actual: float, expected: float) -> bool:
    if math.isnan(expected):
        return math.isnan(actual)
    return actual == expected


#: registry name -> the ScenarioResult accessor it must report.
EXPECTED_READINGS = {
    "precision_007": lambda r: r.detection_007().precision,
    "recall_007": lambda r: r.detection_007().recall,
    "precision_integer": lambda r: r.integer_program_detection(exact=False).precision,
    "recall_integer": lambda r: r.integer_program_detection(exact=False).recall,
    "precision_binary": lambda r: r.binary_program_detection(exact=False).precision,
    "recall_binary": lambda r: r.binary_program_detection(exact=False).recall,
    "accuracy_007": lambda r: r.accuracy_007(),
    "accuracy_integer": lambda r: r.accuracy_integer_program(exact=False),
    "mean_epoch_precision_007": lambda r: float(
        np.mean([s.precision for s in r.per_epoch_detection_007()])
    ),
    "mean_epoch_recall_007": lambda r: float(
        np.mean([s.recall for s in r.per_epoch_detection_007()])
    ),
    "time_to_detection_007": lambda r: r.mean_time_to_detection_007(),
    "false_alarm_rate_007": lambda r: r.false_alarm_rate_007(),
}


def _all_metrics():
    return {
        **sweeps.detection_metrics(),
        **sweeps.accuracy_metrics(),
        **sweeps.dynamic_metrics(),
    }


class TestRegistryWiring:
    @pytest.mark.parametrize("name", sorted(EXPECTED_READINGS))
    def test_metric_reads_the_score_it_is_named_after(self, result, name):
        metric = _all_metrics()[name]
        assert _same(metric(result), EXPECTED_READINGS[name](result))

    def test_without_baselines_only_007_metrics_remain(self):
        assert set(sweeps.detection_metrics(include_baselines=False)) == {
            "precision_007",
            "recall_007",
        }
        assert set(sweeps.accuracy_metrics(include_baselines=False)) == {
            "accuracy_007"
        }

    def test_every_metric_pickles_for_worker_processes(self):
        metrics = {**_all_metrics(), "topk_recall_007": sweeps.metric_topk_recall_007}
        for name, metric in metrics.items():
            assert pickle.loads(pickle.dumps(metric)) is metric, name


class TestStaticScenarioReadings:
    """A failure present from epoch 0 and caught at once reads as such."""

    def test_both_failures_detected_in_every_epoch(self, result):
        assert sweeps.metric_recall_007(result) == 1.0
        assert sweeps.metric_mean_epoch_recall_007(result) == 1.0

    def test_detected_fraction_counts_every_bad_link(self, result):
        assert sweeps.metric_detected_fraction_007(result) == 1.0

    def test_time_to_detection_is_zero_epochs(self, result):
        assert sweeps.metric_time_to_detection_007(result) == 0.0
        assert set(result.time_to_detection_007().values()) == {0}

    def test_false_alarm_rate_is_nan_when_nothing_clears(self, result):
        assert math.isnan(sweeps.metric_false_alarm_rate_007(result))

    def test_topk_recall_scores_the_top_voted_links_of_epoch_0(self, result):
        bad = set(result.failure_scenario.bad_links)
        top = {link for link, _ in result.reports[0].ranked_links[: len(bad)]}
        assert sweeps.metric_topk_recall_007(result) == len(top & bad) / len(bad)

    def test_integer_program_result_backs_its_detection_score(self, result):
        blamed = set(result.integer_program_result(exact=False).blamed_links)
        bad = set(result.failure_scenario.bad_links)
        score = result.integer_program_detection(exact=False)
        assert score.true_positives == len(blamed & bad)
        assert score.false_positives == len(blamed - bad)


class TestStreamScenario:
    def test_streams_the_same_epochs_as_run_scenario(self, result):
        streamed = list(stream_scenario(CONFIG))
        assert [report.epoch for _, report, _ in streamed] == [
            report.epoch for report in result.reports
        ]
        assert [list(report.detected_links) for _, report, _ in streamed] == (
            result.detected_by_epoch()
        )

    def test_yields_the_truth_live_in_each_epoch(self, result):
        truths = [truth for _, _, truth in stream_scenario(CONFIG)]
        assert [set(t.bad_links) for t in truths] == [
            set(t.bad_links) for t in result.truth_by_epoch
        ]

    def test_sinks_see_every_streamed_epoch(self):
        seen = []
        sink = CallbackSink(lambda report: seen.append(report.epoch))
        epochs = [report.epoch for _, report, _ in stream_scenario(CONFIG, sinks=[sink])]
        assert seen == epochs
