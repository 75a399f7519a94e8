"""Scoring 007 and the baselines against simulator ground truth.

The paper uses three measures (Section 6):

* **accuracy** — the fraction of flows whose drop cause was identified
  correctly (per-connection diagnosis);
* **recall** — the fraction of genuinely failed links that were detected
  (false negatives);
* **precision** — the fraction of detected links that had genuinely failed
  (false positives).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Set

from repro.topology.elements import DirectedLink, Link


@dataclass(frozen=True)
class DetectionScore:
    """Precision/recall of a detected link set against ground truth."""

    precision: float
    recall: float
    true_positives: int
    false_positives: int
    false_negatives: int


def _normalize(links: Iterable[DirectedLink | Link], physical: bool) -> Set:
    """Optionally collapse directed links onto physical links before comparing."""
    result = set()
    for link in links:
        if physical and isinstance(link, DirectedLink):
            result.add(link.undirected())
        else:
            result.add(link)
    return result


def detection_precision_recall(
    detected: Iterable[DirectedLink | Link],
    true_bad: Iterable[DirectedLink | Link],
    physical: bool = False,
) -> DetectionScore:
    """Score a detected link set against the injected (ground truth) failures.

    ``physical=True`` compares undirected cables instead of directions, which
    matches how an operator would act on the report (replace the cable/port).
    """
    detected_set = _normalize(detected, physical)
    true_set = _normalize(true_bad, physical)
    tp = len(detected_set & true_set)
    fp = len(detected_set - true_set)
    fn = len(true_set - detected_set)
    precision = tp / (tp + fp) if (tp + fp) else (1.0 if not true_set else 0.0)
    recall = tp / (tp + fn) if (tp + fn) else 1.0
    return DetectionScore(
        precision=precision,
        recall=recall,
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
    )


def per_flow_accuracy(
    predicted_causes: Mapping[int, DirectedLink],
    true_causes: Mapping[int, Optional[DirectedLink]],
    restrict_to: Optional[Iterable[int]] = None,
    physical: bool = False,
) -> float:
    """Fraction of flows whose predicted culprit matches the ground truth.

    Only flows present in ``true_causes`` with a non-``None`` true cause are
    scored (flows whose drops were pure noise have no meaningful culprit).
    ``restrict_to`` further narrows the scored flows (e.g. only flows that
    traversed an injected failure, as in Section 7.2).  Returns ``nan`` when
    no flow qualifies.
    """
    eligible = [
        flow_id
        for flow_id, true_link in true_causes.items()
        if true_link is not None
    ]
    if restrict_to is not None:
        allowed = set(restrict_to)
        eligible = [flow_id for flow_id in eligible if flow_id in allowed]
    if not eligible:
        return float("nan")
    correct = 0
    for flow_id in eligible:
        predicted = predicted_causes.get(flow_id)
        if predicted is None:
            continue
        true_link = true_causes[flow_id]
        if physical:
            if predicted.undirected() == true_link.undirected():
                correct += 1
        elif predicted == true_link:
            correct += 1
    return correct / len(eligible)


# ----------------------------------------------------------------------
# time-aware scoring (dynamic scenarios)
# ----------------------------------------------------------------------
def _check_epoch_alignment(
    detected_by_epoch: Sequence, truth_by_epoch: Sequence
) -> None:
    """All time-aware scorers require one detection set per truth epoch."""
    if len(detected_by_epoch) != len(truth_by_epoch):
        raise ValueError(
            f"epoch count mismatch: {len(detected_by_epoch)} detection sets vs "
            f"{len(truth_by_epoch)} truth sets"
        )


def per_epoch_detection(
    detected_by_epoch: Sequence[Iterable[DirectedLink | Link]],
    truth_by_epoch: Sequence[Iterable[DirectedLink | Link]],
    physical: bool = False,
) -> list:
    """Score every epoch's detections against that epoch's ground truth.

    Both sequences are epoch-ordered and must have equal length; entry ``i``
    of the result is the :class:`DetectionScore` of epoch ``i``.  This is the
    dynamic-scenario generalisation of :func:`detection_precision_recall`:
    when failures flap on and off, a link counts as a true positive only in
    the epochs where it was genuinely bad.
    """
    _check_epoch_alignment(detected_by_epoch, truth_by_epoch)
    return [
        detection_precision_recall(detected, truth, physical=physical)
        for detected, truth in zip(detected_by_epoch, truth_by_epoch)
    ]


def _active_epochs(
    truth_by_epoch: Sequence[Iterable[DirectedLink | Link]], physical: bool
) -> Dict:
    """Map each ever-bad link to the sorted list of epochs it was bad in."""
    active: Dict = {}
    for epoch, truth in enumerate(truth_by_epoch):
        for link in _normalize(truth, physical):
            active.setdefault(link, []).append(epoch)
    return active


def _episodes(
    truth_by_epoch: Sequence[Iterable[DirectedLink | Link]], physical: bool
) -> Dict:
    """Map each ever-bad link to its *episodes*: maximal runs of consecutive
    bad epochs.  A link flapping over ``[2, 4)`` and again over ``[6, 8)``
    has two episodes, ``[2, 3]`` and ``[6, 7]``."""
    episodes: Dict = {}
    for link, epochs in _active_epochs(truth_by_epoch, physical).items():
        runs = [[epochs[0]]]
        for epoch in epochs[1:]:
            if epoch == runs[-1][-1] + 1:
                runs[-1].append(epoch)
            else:
                runs.append([epoch])
        episodes[link] = runs
    return episodes


def detection_latencies(
    detected_by_epoch: Sequence[Iterable[DirectedLink | Link]],
    truth_by_epoch: Sequence[Iterable[DirectedLink | Link]],
    physical: bool = False,
) -> Dict:
    """Per-episode detection latency for every link that ever went bad.

    For each link, one entry per failure *episode* (maximal run of
    consecutive bad epochs), in time order: the number of epochs between the
    episode starting and the first epoch inside it in which 007 flagged the
    link (0 = caught in the episode's first epoch), or ``None`` when the
    link was never flagged during that episode.  On intermittent/flapping
    truth, every recurrence is scored independently — a link detected in its
    first bad window and missed in its second yields ``[0, None]``.
    Detections *between* episodes do not count; they are false alarms,
    measured by :func:`false_alarm_rate_after_clear`.
    """
    _check_epoch_alignment(detected_by_epoch, truth_by_epoch)
    detected_sets = [_normalize(d, physical) for d in detected_by_epoch]
    latencies: Dict = {}
    for link, runs in _episodes(truth_by_epoch, physical).items():
        per_episode = []
        for run in runs:
            latency = None
            for epoch in run:
                if link in detected_sets[epoch]:
                    latency = epoch - run[0]
                    break
            per_episode.append(latency)
        latencies[link] = per_episode
    return latencies


def time_to_detection(
    detected_by_epoch: Sequence[Iterable[DirectedLink | Link]],
    truth_by_epoch: Sequence[Iterable[DirectedLink | Link]],
    physical: bool = False,
) -> Dict:
    """First-detection latency (in epochs) for every link that ever went bad.

    For each link appearing in the ground truth of any epoch: the
    within-episode latency of the link's first *detected* failure episode
    (0 = caught in that episode's first epoch), or ``None`` when no episode
    was ever detected.  Latency is always measured from the start of the
    episode the detection landed in — a link that flaps, clears, and is
    caught immediately when it comes back scores 0, not the gap-spanning
    distance from its first-ever bad epoch.  Per-episode detail (including
    missed recurrences) is in :func:`detection_latencies`.
    """
    latencies = detection_latencies(
        detected_by_epoch, truth_by_epoch, physical=physical
    )
    return {
        link: next((lat for lat in per_episode if lat is not None), None)
        for link, per_episode in latencies.items()
    }


def mean_time_to_detection(
    detected_by_epoch: Sequence[Iterable[DirectedLink | Link]],
    truth_by_epoch: Sequence[Iterable[DirectedLink | Link]],
    physical: bool = False,
) -> float:
    """Mean latency over every *detected* failure episode (``nan`` if none).

    Episode-weighted: a link that failed twice and was caught both times
    contributes two latencies, so re-detections of flapping links count
    instead of being discarded after the first window.  Undetected episodes
    are excluded from the mean (coverage is recall's job); when no episode
    was ever detected the mean is ``nan`` — callers aggregating across
    trials must treat ``nan`` as "no data", not as a value
    (:meth:`repro.experiments.runner.SweepRunner.run_sweep` does).
    """
    latencies = [
        latency
        for per_episode in detection_latencies(
            detected_by_epoch, truth_by_epoch, physical=physical
        ).values()
        for latency in per_episode
        if latency is not None
    ]
    if not latencies:
        return float("nan")
    return float(sum(latencies)) / len(latencies)


def false_alarm_rate_after_clear(
    detected_by_epoch: Sequence[Iterable[DirectedLink | Link]],
    truth_by_epoch: Sequence[Iterable[DirectedLink | Link]],
    physical: bool = False,
    include_gaps: bool = False,
) -> float:
    """How often 007 keeps blaming a link after its failure has cleared.

    Over every (link, epoch) pair counted as a *clear* opportunity: the
    fraction in which the link is still flagged.  0.0 means the votes decay
    cleanly once a transient clears (the paper's requirement that stale
    failures stop drawing blame); ``nan`` when no failure ever cleared
    inside the observed window.

    By default only the epochs after a link's *final* bad epoch count as
    opportunities.  Gaps between an intermittent link's failure episodes are
    excluded: blaming a genuinely flapping link during a short quiet window
    is a timeliness artefact, not stale blame, and those epochs are already
    penalized by per-epoch precision.  Pass ``include_gaps=True`` to also
    count every in-gap epoch as an opportunity (the strictest reading, in
    which any blame outside a bad epoch is a false alarm).
    """
    _check_epoch_alignment(detected_by_epoch, truth_by_epoch)
    detected_sets = [_normalize(d, physical) for d in detected_by_epoch]
    truth_sets = [_normalize(t, physical) for t in truth_by_epoch]
    alarms = 0
    opportunities = 0
    for link, epochs in _active_epochs(truth_by_epoch, physical).items():
        start = (epochs[0] if include_gaps else epochs[-1]) + 1
        for epoch in range(start, len(truth_sets)):
            if link in truth_sets[epoch]:
                continue
            opportunities += 1
            if link in detected_sets[epoch]:
                alarms += 1
    if opportunities == 0:
        return float("nan")
    return alarms / opportunities


def top_k_recall(
    ranked_links: Sequence[DirectedLink],
    true_bad: Iterable[DirectedLink],
    k: Optional[int] = None,
) -> float:
    """Fraction of true bad links appearing among the top ``k`` ranked links.

    ``k`` defaults to the number of true bad links (the "if the top k links
    had been selected" analysis of Section 6.6).  Returns 1.0 when there are
    no true bad links.
    """
    true_set = set(true_bad)
    if not true_set:
        return 1.0
    if k is None:
        k = len(true_set)
    top = set(ranked_links[:k])
    return len(top & true_set) / len(true_set)


# ----------------------------------------------------------------------
# streaming scoring (the ReportSink path)
# ----------------------------------------------------------------------
class StreamingDetectionScorer:
    """A report sink that scores detections online, epoch by epoch.

    Attach to a streaming service (``Zero07Service(sinks=[scorer])`` or
    ``run_scenario(config, sinks=[scorer])``) with a ``truth_lookup`` mapping
    an epoch to its live ground-truth bad links; every finalized report is
    scored immediately, so long scenarios never need to retain their reports
    to compute precision/recall timelines.
    """

    def __init__(self, truth_lookup, physical: bool = False) -> None:
        self._truth_lookup = truth_lookup
        self._physical = physical
        self.scores: Dict[int, DetectionScore] = {}

    def on_report(self, report) -> None:
        """Score one finalized epoch report against its epoch's truth.

        Epochs whose ``truth_lookup`` returns ``None`` (no ground truth
        available) are skipped rather than scored against nothing.
        """
        truth = self._truth_lookup(report.epoch)
        if truth is None:
            return
        bad_links = getattr(truth, "bad_links", truth)
        self.scores[report.epoch] = detection_precision_recall(
            report.detected_links, bad_links, physical=self._physical
        )
