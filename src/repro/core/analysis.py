"""The 007 analysis agent.

At the end of every epoch the (centralised) analysis agent receives the
discovered paths of all flows that suffered retransmissions, tallies their
votes, ranks the links, runs Algorithm 1 to flag problematic links, classifies
noise drops, and attributes a most-likely culprit link to every failure-drop
flow.  The result is an :class:`EpochReport`.

Two interchangeable engines back the agent: ``"arrays"`` (the default) runs
the vectorized pipeline of :mod:`repro.core.arrays` over a persistent
:class:`~repro.core.arrays.LinkIndex`, while ``"dicts"`` runs the original
pure-Python tally and serves as the reference oracle.  Both produce identical
reports — same detections, same deterministic tie-breaks, same floats.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass, field
from typing import (
    Dict,
    List,
    Literal,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.blame import (
    BlameConfig,
    BlameResult,
    derived_once,
    find_problematic_links,
)
from repro.core.noise import NoiseClassification, classify_noise_flows
from repro.core.ranking import attribute_flow_causes, rank_links
from repro.core.votes import VotePolicy, VoteTally
from repro.discovery.agent import DiscoveredPath
from repro.topology.elements import DirectedLink

EngineKind = Literal["dicts", "arrays"]


class FlowCounts(NamedTuple):
    """``len()`` of a report's three per-flow collections."""

    causes: int
    noise: int
    failure: int


_PerFlow = Tuple[NoiseClassification, Dict[int, DirectedLink]]


@dataclass(eq=False)
class EpochReport:
    """Everything 007 concluded about one epoch.

    Three tiers on the arrays engine.  The *decision* — ``blame``'s
    ``detected_links``, ``votes_at_detection`` and ``threshold_votes``, and
    ``num_paths_analyzed`` — is computed when the report is built, with the
    votes it was reached on kept as arrays (``blame.arrays``).  The *per-link
    tables* — ``ranked_links`` and ``blame.final_votes`` — and the *per-flow*
    answers — ``noise`` and ``flow_causes`` — are derived the first time they
    are read and kept from then on (one derivation each, whichever thread
    asks first), from those arrays and from the report's own tally; the dict
    oracle hands everything in eagerly.  The arrays are frozen and a report's
    tally is never written after the report exists (final reports own it,
    mid-epoch ones hold a snapshot), so a late read returns exactly what an
    immediate one would, and it breaks ties with the link index's sort ranks
    as of the build (``blame.arrays.sort_ranks``), never with the live
    index's, which the ingesting thread may be growing (relative link order
    does not change).  Reports compare by identity: every query surface
    promises "the identical object".
    """

    epoch: int
    tally: VoteTally
    blame: BlameResult
    num_paths_analyzed: int
    #: ``ranked_links``; ``None`` until first read on the arrays engine.
    _ranked: Optional[List[Tuple[DirectedLink, float]]] = field(
        default=None, repr=False
    )
    #: ``(noise, flow_causes)``; ``None`` until first read on the arrays engine.
    _per_flow: Optional[_PerFlow] = field(default=None, repr=False)
    _attribute_noise_flows: bool = field(default=False, repr=False)
    _flow_counts: Optional[FlowCounts] = field(default=None, init=False, repr=False)

    def _ranked_table(self, n: Optional[int] = None):
        arrays = self.blame.arrays
        return list(
            arrays.table(arrays.index.items, arrays.votes, arrays.ranked()[:n])
        )

    @property
    def ranked_links(self) -> List[Tuple[DirectedLink, float]]:
        """Every voted link with its votes, most voted first, ties in link order."""
        return derived_once(self, "_ranked", self._ranked_table)

    def _failure_rows(self) -> np.ndarray:
        """Per tally row: a failure drop?  Read off Algorithm 1's record of
        the rows it took, no scan of the paths."""
        from repro.core.arrays import failure_rows

        return failure_rows(
            self.blame.arrays.row_steps, self.tally.retransmissions_array()
        )

    def _forced(self) -> _PerFlow:
        return derived_once(
            self,
            "_per_flow",
            lambda: _per_flow_arrays(
                self.tally,
                self._failure_rows(),
                self._attribute_noise_flows,
                self.blame.arrays.sort_ranks,
            ),
        )

    @property
    def noise(self) -> NoiseClassification:
        """Flows split into noise drops and failure drops."""
        return self._forced()[0]

    @property
    def flow_causes(self) -> Dict[int, DirectedLink]:
        """The culprit link attributed to every failure-drop flow."""
        return self._forced()[1]

    def flow_counts(self) -> FlowCounts:
        """The sizes of ``flow_causes``, ``noise.noise_flows`` and
        ``noise.failure_flows`` — counted on row masks, so asking never
        builds the per-flow collections."""
        counts = self._flow_counts
        if counts is None:
            per_flow = self._per_flow
            if per_flow is None:
                counts = _flow_counts_arrays(
                    self.tally.flow_ids_array(),
                    self._failure_rows(),
                    self._attribute_noise_flows,
                )
            else:
                noise, causes = per_flow
                counts = FlowCounts(len(causes), noise.num_noise, noise.num_failure)
            self._flow_counts = counts
        return counts

    @property
    def detected_links(self) -> List[DirectedLink]:
        """The problematic links found by Algorithm 1, most voted first."""
        return list(self.blame.detected_links)

    def cause_of_flow(self, flow_id: int) -> Optional[DirectedLink]:
        """The culprit link attributed to ``flow_id`` (``None`` if unknown/noise)."""
        return self.flow_causes.get(flow_id)

    def top_links(self, n: int = 5) -> List[Tuple[DirectedLink, float]]:
        """The ``n`` most voted links of the epoch (none for ``n <= 0``) —
        O(n) objects: an unread ``ranked_links`` stays unbuilt."""
        if n <= 0:
            return []
        ranked = self._ranked
        return self._ranked_table(n) if ranked is None else ranked[:n]

    def summary(self) -> str:
        """One-line human-readable summary of the epoch."""
        top = self.top_links(1)
        top_text = f"{top[0][0]} ({top[0][1]:.2f} votes)" if top else "none"
        return (
            f"epoch {self.epoch}: {self.num_paths_analyzed} flows voted, "
            f"{len(self.detected_links)} problematic link(s), top link {top_text}, "
            f"{self.flow_counts().noise} noise drops"
        )


def _per_flow_arrays(
    tally,
    failure_rows: np.ndarray,
    attribute_noise_flows: bool,
    sort_ranks: np.ndarray,
) -> _PerFlow:
    """Noise split and per-flow causes of an array tally, given its failure
    rows (bit-identical to the dict engine's)."""
    from repro.core.arrays import attribute_flow_causes_arrays, noise_split

    noise = noise_split(tally.flow_ids_array(), failure_rows)
    # a flow traced more than once is attributed on its bound row, like the
    # dict engine
    rows = np.zeros(0, dtype=np.int64)
    if attribute_noise_flows or noise.failure_flows:
        flows, rows = tally.bound_index
        if not attribute_noise_flows:
            rows = rows[np.isin(flows, tally.flow_ids_array()[failure_rows])]
    return noise, attribute_flow_causes_arrays(tally, rows, sort_ranks)


def _flow_counts_arrays(
    flow_ids: np.ndarray, failure_rows: np.ndarray, attribute_noise_flows: bool
) -> FlowCounts:
    """What ``len()`` of :func:`_per_flow_arrays`'s collections would say.

    Distinct flow ids among the noise rows and among the failure rows (a
    re-traced flow can sit in both); every failure flow gets a cause, and
    with ``attribute_noise_flows`` every flow does.  When no flow was
    re-traced — rows in flow order, or one sort says so — the rows are the
    flows and the masks are counted as they are.
    """

    def distinct(ids: np.ndarray) -> int:
        ids = np.sort(ids)
        return int(np.count_nonzero(ids[1:] != ids[:-1])) + 1 if len(ids) else 0

    flows = len(flow_ids)
    if not bool((flow_ids[1:] > flow_ids[:-1]).all()):
        flows = distinct(flow_ids)
    if flows == len(flow_ids):
        failure = int(np.count_nonzero(failure_rows))
        noise = flows - failure
    else:
        failure = distinct(flow_ids[failure_rows])
        noise = distinct(flow_ids[~failure_rows])
    return FlowCounts(
        causes=flows if attribute_noise_flows else failure,
        noise=noise,
        failure=failure,
    )


class AnalysisAgent:
    """Turns an epoch's discovered paths into an :class:`EpochReport`."""

    def __init__(
        self,
        blame_config: Optional[BlameConfig] = None,
        vote_policy: VotePolicy = "inverse_hops",
        attribute_noise_flows: bool = False,
        engine: EngineKind = "arrays",
        link_index=None,
    ) -> None:
        if engine not in ("dicts", "arrays"):
            raise ValueError(f"unknown analysis engine {engine!r}")
        self._blame_config = blame_config or BlameConfig()
        self._vote_policy: VotePolicy = vote_policy
        self._attribute_noise_flows = attribute_noise_flows
        self._engine: EngineKind = engine
        #: persistent link interner shared across epochs (arrays engine only),
        #: so link ids are stable for multi-epoch aggregation.
        self._link_index = link_index

    # ------------------------------------------------------------------
    @property
    def blame_config(self) -> BlameConfig:
        """The Algorithm 1 configuration used for every epoch."""
        return self._blame_config

    @property
    def engine(self) -> EngineKind:
        """Which tally/blame implementation this agent runs."""
        return self._engine

    def analyze_epoch(
        self, epoch: int, paths: Sequence[DiscoveredPath]
    ) -> EpochReport:
        """Analyse one epoch's worth of discovered paths (batch entry point)."""
        if self._engine == "arrays":
            from repro.core.arrays import ArrayVoteTally, LinkIndex

            if self._link_index is None:
                self._link_index = LinkIndex()
            tally = ArrayVoteTally(policy=self._vote_policy, index=self._link_index)
            tally.add_discovered_paths(paths)
            return self._analyze_array_tally(epoch, tally)

        tally = VoteTally(policy=self._vote_policy)
        tally.add_discovered_paths(paths)
        return self._analyze_dict_tally(epoch, tally)

    def analyze_tally(
        self, epoch: int, tally, prior: Optional[EpochReport] = None
    ) -> EpochReport:
        """Materialize a report from an *externally accumulated* tally.

        This is the streaming entry point: the 007 service grows a tally
        incrementally as evidence arrives and materializes reports on demand
        (including mid-epoch) by handing the tally here, with the epoch's
        previous report as ``prior`` — a report of this agent on the first
        rows of the same tally, which Algorithm 1 resumes from on the arrays
        engine, or whose verdict it reuses when that report read every row
        (the dict oracle always runs from scratch).  Array-backed
        tallies are dispatched to the vectorized path regardless of this
        agent's ``engine`` setting.
        """
        if hasattr(tally, "votes_array"):
            return self._analyze_array_tally(epoch, tally, prior)
        return self._analyze_dict_tally(epoch, tally)

    def _analyze_dict_tally(self, epoch: int, tally: VoteTally) -> EpochReport:
        """The reference (pure-Python) epoch analysis over a built tally."""
        paths = tally.contributions
        blame = find_problematic_links(tally, self._blame_config)
        noise = classify_noise_flows(paths, blame.detected_links)

        # one path per flow: the contribution the flow is bound to
        attributable = [
            paths[row]
            for flow, row in tally.flow_rows().items()
            if self._attribute_noise_flows or flow in noise.failure_flows
        ]
        flow_causes = attribute_flow_causes(tally, attributable)

        return EpochReport(
            epoch=epoch,
            tally=tally,
            blame=blame,
            num_paths_analyzed=len(paths),
            _ranked=rank_links(tally),
            _per_flow=(noise, flow_causes),
        )

    def _analyze_array_tally(
        self, epoch: int, tally, prior: Optional[EpochReport] = None
    ) -> EpochReport:
        """The vectorized decision over a built tally (bit-identical); the
        report derives its per-link and per-flow fields when asked."""
        from repro.core.arrays import find_problematic_links_arrays

        return EpochReport(
            epoch=epoch,
            tally=tally,
            blame=find_problematic_links_arrays(tally, self._blame_config, prior),
            num_paths_analyzed=tally.num_flows,
            _attribute_noise_flows=self._attribute_noise_flows,
        )
