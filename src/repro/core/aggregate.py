"""Multi-epoch aggregation of 007 reports.

Section 8.3 reports day-long aggregates: how many links are flagged per
epoch on average, which links recur, and how detections break down by link
location (server-ToR vs ToR-T1 vs T1-T2).  The aggregator consumes the
per-epoch :class:`~repro.core.analysis.EpochReport`s the pipeline already
produces and maintains exactly those summaries, giving operators the
"heat map over time" view the paper describes.

Internally the aggregator interns links into its own
:class:`~repro.core.arrays.LinkIndex` and keeps every per-link statistic in a
dense array.  Reports from the array engine are folded in with pure vector
operations (their voted ids are translated to the aggregator's ids through a
cached per-index table); dict-engine reports fall back to a per-link loop over
``ranked_links``.  Either way the accumulated floats are identical, because
per-link additions happen in the same epoch order.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.analysis import EpochReport
from repro.core.arrays import LinkIndex
from repro.core.votes import VOTE_UNITS
from repro.netsim.failures import FailureScenario
from repro.topology.elements import DirectedLink, LinkLevel
from repro.topology.topology import Topology


@dataclass
class LinkHealthRecord:
    """Everything the aggregator knows about one link across epochs."""

    link: DirectedLink
    epochs_detected: int = 0
    epochs_voted: int = 0
    total_votes: float = 0.0
    max_votes: float = 0.0
    last_detected_epoch: Optional[int] = None
    #: ground-truth columns, filled only when per-epoch truth is ingested.
    epochs_bad: int = 0
    true_detections: int = 0
    false_detections: int = 0

    @property
    def mean_votes_when_voted(self) -> float:
        """Average votes over the epochs in which the link received any."""
        return self.total_votes / self.epochs_voted if self.epochs_voted else 0.0


class MultiEpochAggregator:
    """Accumulates epoch reports into link-health and fleet-wide summaries.

    The aggregator is also a :class:`~repro.api.service.ReportSink`: attach
    it to a streaming service (``Zero07Service(sinks=[aggregator])`` or
    ``run_scenario(config, sinks=[aggregator])``) and every finalized epoch
    report is folded in as it is produced.  Supply ``truth_lookup`` (epoch ->
    :class:`FailureScenario`) to maintain the truth-aware columns in
    streaming mode too.
    """

    def __init__(
        self,
        topology: Optional[Topology] = None,
        link_index: Optional[LinkIndex] = None,
        truth_lookup: Optional[Callable[[int], Optional[FailureScenario]]] = None,
    ) -> None:
        self._topology = topology
        self._truth_lookup = truth_lookup
        self._index = link_index if link_index is not None else LinkIndex()
        self._detections_per_epoch: List[int] = []
        self._max_votes_per_epoch: List[float] = []
        self._epochs_seen: List[int] = []
        # per-link-id statistics, grown on demand to the index size
        self._epochs_voted = np.zeros(len(self._index), dtype=np.int64)
        self._epochs_detected = np.zeros(len(self._index), dtype=np.int64)
        self._total_votes = np.zeros(len(self._index), dtype=np.float64)
        self._max_votes = np.zeros(len(self._index), dtype=np.float64)
        self._last_detected = np.zeros(len(self._index), dtype=np.int64)
        # ground-truth columns (filled only when truth is supplied to ingest)
        self._epochs_bad = np.zeros(len(self._index), dtype=np.int64)
        self._true_detections = np.zeros(len(self._index), dtype=np.int64)
        self._false_detections = np.zeros(len(self._index), dtype=np.int64)
        self._epochs_with_truth = 0
        # translation tables from a foreign LinkIndex to this aggregator's
        # ids; weak keys so dead per-epoch indexes are not retained forever.
        self._translations: "weakref.WeakKeyDictionary[LinkIndex, np.ndarray]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    def _grow(self) -> None:
        extra = len(self._index) - len(self._epochs_voted)
        if extra <= 0:
            return
        self._epochs_voted = np.concatenate(
            [self._epochs_voted, np.zeros(extra, dtype=np.int64)]
        )
        self._epochs_detected = np.concatenate(
            [self._epochs_detected, np.zeros(extra, dtype=np.int64)]
        )
        self._total_votes = np.concatenate(
            [self._total_votes, np.zeros(extra, dtype=np.float64)]
        )
        self._max_votes = np.concatenate(
            [self._max_votes, np.zeros(extra, dtype=np.float64)]
        )
        self._last_detected = np.concatenate(
            [self._last_detected, np.zeros(extra, dtype=np.int64)]
        )
        self._epochs_bad = np.concatenate(
            [self._epochs_bad, np.zeros(extra, dtype=np.int64)]
        )
        self._true_detections = np.concatenate(
            [self._true_detections, np.zeros(extra, dtype=np.int64)]
        )
        self._false_detections = np.concatenate(
            [self._false_detections, np.zeros(extra, dtype=np.int64)]
        )

    def _translate(self, foreign: LinkIndex) -> np.ndarray:
        """Table mapping foreign link ids to this aggregator's ids."""
        if foreign is self._index:
            self._grow()
            return np.arange(len(self._index), dtype=np.int64)
        table = self._translations.get(foreign)
        if table is None:
            table = np.zeros(0, dtype=np.int64)
        if len(table) < len(foreign):
            fresh = self._index.fast_ids(foreign.links[len(table) :])
            table = np.concatenate([table, fresh])
            self._translations[foreign] = table
            self._grow()
        return table

    # ------------------------------------------------------------------
    def ingest(self, report: EpochReport, truth: Optional[FailureScenario] = None) -> None:
        """Fold one epoch's report into the running aggregates.

        Pass the epoch's ground-truth :class:`FailureScenario` (as recorded by
        :meth:`Zero07System.ground_truth` / ``ScenarioResult.truth_by_epoch``)
        to additionally maintain truth-aware columns: per-link bad-epoch
        counts and true/false detection-event splits.  With time-varying
        scenarios the truth differs per epoch, which is exactly what these
        columns account for.
        """
        self._epochs_seen.append(report.epoch)
        self._detections_per_epoch.append(len(report.detected_links))

        tally = report.tally
        if hasattr(tally, "voted_ids"):
            table = self._translate(tally.index)
            voted = tally.voted_ids()
            ids = table[voted]
            votes = tally.votes_array()[voted] / VOTE_UNITS
            self._epochs_voted[ids] += 1
            self._total_votes[ids] += votes
            self._max_votes[ids] = np.maximum(self._max_votes[ids], votes)
            top_votes = float(votes.max()) if len(votes) else 0.0
        else:
            ranked = report.ranked_links
            voted_ids = [self._index.intern(link) for link, _ in ranked]
            self._grow()
            for idx, (_, votes) in zip(voted_ids, ranked):
                self._epochs_voted[idx] += 1
                self._total_votes[idx] += votes
                self._max_votes[idx] = max(self._max_votes[idx], votes)
            top_votes = ranked[0][1] if ranked else 0.0
        self._max_votes_per_epoch.append(top_votes)
        detected_ids = [self._index.intern(link) for link in report.detected_links]
        self._grow()
        for idx in detected_ids:
            self._epochs_detected[idx] += 1
            self._last_detected[idx] = report.epoch

        if truth is not None:
            self._epochs_with_truth += 1
            bad_ids = {self._index.intern(link) for link in truth.bad_links}
            self._grow()
            for idx in bad_ids:
                self._epochs_bad[idx] += 1
            for idx in detected_ids:
                if idx in bad_ids:
                    self._true_detections[idx] += 1
                else:
                    self._false_detections[idx] += 1

    def on_report(self, report: EpochReport) -> None:
        """:class:`ReportSink` hook: fold in one finalized epoch report.

        Truth columns are maintained when a ``truth_lookup`` was supplied at
        construction (it is consulted with the report's epoch).
        """
        truth = self._truth_lookup(report.epoch) if self._truth_lookup else None
        self.ingest(report, truth=truth)

    def ingest_many(
        self,
        reports: List[EpochReport],
        truths: Optional[List[FailureScenario]] = None,
    ) -> None:
        """Fold several epoch reports (and optional per-epoch truths) in order."""
        if truths is not None and len(truths) != len(reports):
            raise ValueError(
                f"got {len(reports)} reports but {len(truths)} truth scenarios"
            )
        for i, report in enumerate(reports):
            self.ingest(report, truth=truths[i] if truths is not None else None)

    # ------------------------------------------------------------------
    @property
    def epochs_ingested(self) -> int:
        """Number of epochs aggregated so far."""
        return len(self._epochs_seen)

    def _record_at(self, idx: int) -> LinkHealthRecord:
        detected = int(self._epochs_detected[idx])
        return LinkHealthRecord(
            link=self._index.link_of(idx),
            epochs_detected=detected,
            epochs_voted=int(self._epochs_voted[idx]),
            total_votes=float(self._total_votes[idx]),
            max_votes=float(self._max_votes[idx]),
            last_detected_epoch=int(self._last_detected[idx]) if detected else None,
            epochs_bad=int(self._epochs_bad[idx]),
            true_detections=int(self._true_detections[idx]),
            false_detections=int(self._false_detections[idx]),
        )

    def record_of(self, link: DirectedLink) -> Optional[LinkHealthRecord]:
        """The health record of one link (``None`` if it was never seen)."""
        idx = self._index.get(link)
        if idx is None or idx >= len(self._epochs_voted):
            return None
        if self._epochs_voted[idx] == 0 and self._epochs_detected[idx] == 0:
            return None
        return self._record_at(idx)

    def recurrent_offenders(self, min_epochs_detected: int = 2) -> List[LinkHealthRecord]:
        """Links detected in at least ``min_epochs_detected`` epochs, worst first.

        Recurrence across epochs is the paper's cue that an intervention
        (reboot / replace) is worth its cost.
        """
        offenders = [
            self._record_at(int(idx))
            for idx in np.flatnonzero(self._epochs_detected >= min_epochs_detected)
        ]
        return sorted(offenders, key=lambda r: (-r.epochs_detected, -r.total_votes))

    @property
    def epochs_with_truth(self) -> int:
        """Number of ingested epochs that carried ground truth."""
        return self._epochs_with_truth

    def detection_event_counts(self) -> Tuple[int, int]:
        """(true, false) detection events over the truth-carrying epochs."""
        return int(self._true_detections.sum()), int(self._false_detections.sum())

    def false_alarm_fraction(self) -> float:
        """Share of detection events naming a link that was not bad that epoch.

        Only meaningful when per-epoch truth was ingested; ``nan`` when no
        truth-scored detection events exist yet.
        """
        true_events, false_events = self.detection_event_counts()
        total = true_events + false_events
        if total == 0:
            return float("nan")
        return false_events / total

    def detections_per_epoch(self) -> Tuple[float, float]:
        """Mean and standard deviation of links flagged per epoch (Section 8.3)."""
        if not self._detections_per_epoch:
            return 0.0, 0.0
        return (
            float(np.mean(self._detections_per_epoch)),
            float(np.std(self._detections_per_epoch)),
        )

    def max_votes_per_epoch(self) -> Tuple[float, float]:
        """Mean and standard deviation of the per-epoch maximum vote tally."""
        if not self._max_votes_per_epoch:
            return 0.0, 0.0
        return (
            float(np.mean(self._max_votes_per_epoch)),
            float(np.std(self._max_votes_per_epoch)),
        )

    def detection_breakdown_by_level(self) -> Dict[str, float]:
        """Share of detection events per link level (needs a topology).

        Matches the Section 8.3 breakdown (48% server-ToR, 24% ToR-T1, ...);
        the shares are over detection *events* (link-epochs), not unique links.
        """
        if self._topology is None:
            raise ValueError("a topology is required for the level breakdown")
        counts: Dict[str, int] = {}
        total = 0
        for idx in np.flatnonzero(self._epochs_detected > 0):
            detected = int(self._epochs_detected[idx])
            level = self._topology.link_level(self._index.link_of(int(idx)))
            label = {
                LinkLevel.HOST: "server-ToR",
                LinkLevel.LEVEL1: "ToR-T1",
                LinkLevel.LEVEL2: "T1-T2",
                LinkLevel.LEVEL3: "T2-T3",
            }[level]
            counts[label] = counts.get(label, 0) + detected
            total += detected
        if total == 0:
            return {}
        return {label: count / total for label, count in counts.items()}
