"""Algorithm 1: finding the most problematic links in the network.

The algorithm repeatedly picks the most voted link ``lmax``; as long as its
tally is at least a threshold fraction (1% by default, chosen by the paper via
a precision/recall parameter sweep) of the total votes cast, ``lmax`` is
declared problematic.  The votes other links received *because they shared
failed flows with* ``lmax`` are then discounted — assume every flow with
retransmissions through ``lmax`` was dropped by ``lmax`` and remove the votes
those flows contributed elsewhere — and the loop repeats.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Literal, Optional, Set, Tuple

from repro.core.votes import VOTE_UNITS, VoteContribution, VoteTally
from repro.topology.elements import DirectedLink

if TYPE_CHECKING:
    from repro.core.arrays import VerdictArrays

AdjustmentPolicy = Literal["paths", "none"]

# One lock for every first read of a derived report field (not one per
# object, which would make reports unpicklable): a derivation holds the GIL
# anyway.
_DERIVING = threading.Lock()


def derived_once(holder, slot: str, derive):
    """``holder.<slot>``, set to ``derive()`` by whichever thread first finds
    it ``None`` — once, so every reader gets the identical object."""
    value = getattr(holder, slot)
    if value is None:
        with _DERIVING:
            value = getattr(holder, slot)
            if value is None:
                value = derive()
                setattr(holder, slot, value)
    return value


@dataclass(frozen=True)
class BlameConfig:
    """Tunables of Algorithm 1."""

    #: a link is problematic while its votes are at least this fraction of the
    #: total votes cast in the epoch (the paper uses 1%).
    threshold_fraction: float = 0.01
    #: how to discount votes caused by an already-blamed link:
    #: ``"paths"`` (the paper's scheme — reassign the shared flows to the
    #: blamed link) or ``"none"`` (no adjustment; ablation).
    adjustment: AdjustmentPolicy = "paths"
    #: a link must have been voted for by at least this many distinct flows to
    #: be flagged.  The paper's deployments see thousands of voting flows per
    #: epoch, so a single lone drop is far below the 1% threshold; at the
    #: smaller scale of simulations this guard plays the same role of keeping
    #: "occasional, lone, sporadic drops" from being flagged.
    min_flow_support: int = 2
    #: hard cap on iterations (safety net; the vote mass shrinks every round).
    max_links: int = 1000

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold_fraction < 1.0:
            raise ValueError("threshold_fraction must be in (0, 1)")
        if self.adjustment not in ("paths", "none"):
            raise ValueError(f"unknown adjustment policy {self.adjustment!r}")
        if self.min_flow_support < 1:
            raise ValueError("min_flow_support must be >= 1")
        if self.max_links < 1:
            raise ValueError("max_links must be >= 1")


@dataclass
class BlameResult:
    """Output of Algorithm 1."""

    detected_links: List[DirectedLink] = field(default_factory=list)
    #: votes each detected link had at the moment it was picked.
    votes_at_detection: Dict[DirectedLink, float] = field(default_factory=dict)
    #: the threshold (in votes) used for the stop condition.
    threshold_votes: float = 0.0
    #: remaining adjusted tally when the algorithm stopped, every voted link.
    #: The arrays engine passes ``None`` beside ``arrays`` and the dict is
    #: built when first read (a property, installed below the class).
    final_votes: Dict[DirectedLink, float] = field(default_factory=dict)
    #: membership cache for ``in`` checks; invalidated when detected_links
    #: grows or is rebound.  (In-place same-length element replacement is not
    #: detected — detected_links is treated as append-only or replaced whole.)
    _detected_set: Optional[frozenset] = field(
        default=None, init=False, repr=False, compare=False
    )
    _detected_set_key: Optional[Tuple[int, int]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: arrays engine: the :class:`~repro.core.arrays.VerdictArrays` of the run.
    arrays: Optional[VerdictArrays] = field(default=None, repr=False, compare=False)

    @property
    def num_detected(self) -> int:
        """Number of links flagged as problematic."""
        return len(self.detected_links)

    def __contains__(self, link: DirectedLink) -> bool:
        key = (id(self.detected_links), len(self.detected_links))
        if self._detected_set is None or self._detected_set_key != key:
            self._detected_set = frozenset(self.detected_links)
            self._detected_set_key = key
        return link in self._detected_set

    def _final_votes(self) -> Dict[DirectedLink, float]:
        arrays = self.arrays
        return dict(arrays.table(arrays.index.items, arrays.final))


# After ``@dataclass`` ran, so ``final_votes`` is still a constructor keyword
# and a compared field while its value lives in ``_final``.
BlameResult.final_votes = property(
    lambda self: derived_once(self, "_final", self._final_votes),
    lambda self, value: setattr(self, "_final", value),
)


def find_problematic_links(
    tally: VoteTally, config: Optional[BlameConfig] = None
) -> BlameResult:
    """Run Algorithm 1 over an epoch's vote tally.

    The input tally is not modified; the adjustment operates on working
    copies of the vote counts.  Array-backed tallies
    (:class:`~repro.core.arrays.ArrayVoteTally`) are dispatched to the
    vectorized kernel, which produces bit-identical results.
    """
    config = config or BlameConfig()
    if hasattr(tally, "votes_array"):
        from repro.core.arrays import find_problematic_links_arrays

        return find_problematic_links_arrays(tally, config)
    # the loop runs in integer vote units (exact, so ties are real ties);
    # votes become floats only in the result
    votes: Dict[DirectedLink, int] = tally.unit_votes()
    total = sum(votes.values())
    result = BlameResult(
        threshold_votes=config.threshold_fraction * (total / VOTE_UNITS)
    )
    if total <= 0:
        return result
    threshold = config.threshold_fraction * total
    remaining: List[VoteContribution] = list(tally.contributions)
    blamed: Set[DirectedLink] = set()
    # one O(total hops) pass for every link's support — per-link support_of()
    # scans would make eligibility O(links x flows), the dominant cost at
    # production scale.
    support = tally.support_map()
    eligible = {
        link
        for link in votes
        if support.get(link, 0) >= config.min_flow_support
    }

    while len(result.detected_links) < config.max_links:
        candidates = [
            (link, v) for link, v in votes.items() if link not in blamed and link in eligible
        ]
        if not candidates:
            break
        # deterministic tie-break: highest votes, then smallest link
        best = max(v for _, v in candidates)
        tied = sorted(link for link, v in candidates if v == best)
        lmax, vmax = tied[0], best
        if vmax < threshold or vmax <= 0:
            break
        blamed.add(lmax)
        result.detected_links.append(lmax)
        result.votes_at_detection[lmax] = vmax / VOTE_UNITS

        if config.adjustment == "paths":
            remaining = _discount_flows_through(votes, remaining, lmax)

    result.final_votes = {link: units / VOTE_UNITS for link, units in votes.items()}
    return result


def _discount_flows_through(
    votes: Dict[DirectedLink, int],
    contributions: List[VoteContribution],
    blamed_link: DirectedLink,
) -> List[VoteContribution]:
    """Attribute every remaining flow through ``blamed_link`` to it.

    The votes such flows contributed to *other* links are removed from the
    working tally; the flows themselves are removed from the remaining pool so
    later iterations do not discount them twice.  Returns the surviving
    contributions.  A link's units are the sum over the remaining flows that
    cross it, exactly, so they never drop below zero.
    """
    survivors: List[VoteContribution] = []
    for contribution in contributions:
        if blamed_link not in contribution.links:
            survivors.append(contribution)
            continue
        for link in contribution.links:
            if link != blamed_link:
                votes[link] -= contribution.units
    return survivors
