"""Per-link packet-drop state: noise floors, injected failures, hard blackholes.

The table keys on *directed* links so that asymmetric failures (e.g. a
ToR->T1 direction dropping while T1->ToR is clean, Figure 11) can be
expressed.  Good links carry a small "noise" drop probability drawn uniformly
from ``(0, 1e-6)`` as in the paper's simulation setup; failed links carry a
higher, injected drop rate.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.topology.clos import ClosTopology
from repro.topology.elements import DirectedLink, Link
from repro.util.rng import RngLike, ensure_rng

DEFAULT_NOISE_LOW = 0.0
DEFAULT_NOISE_HIGH = 1e-6


class LinkStateTable:
    """Drop probabilities and up/down state for every directed link.

    Parameters
    ----------
    topology:
        Topology whose links are tracked.
    noise_low, noise_high:
        Range of the uniform noise drop probability assigned to good links.
    rng:
        Seed or generator used for the noise assignment.
    """

    def __init__(
        self,
        topology: ClosTopology,
        noise_low: float = DEFAULT_NOISE_LOW,
        noise_high: float = DEFAULT_NOISE_HIGH,
        rng: RngLike = 0,
    ) -> None:
        if not 0.0 <= noise_low <= noise_high <= 1.0:
            raise ValueError("need 0 <= noise_low <= noise_high <= 1")
        self._topology = topology
        self._noise_low = noise_low
        self._noise_high = noise_high
        self._rng = ensure_rng(rng)
        self._drop_prob: Dict[DirectedLink, float] = {}
        self._failed: Set[DirectedLink] = set()
        self._down: Set[Link] = set()
        self.reset_noise()

    # ------------------------------------------------------------------
    # noise / reset
    # ------------------------------------------------------------------
    def reset_noise(self, rng: RngLike = None) -> None:
        """(Re)assign noise drop probabilities to every link and clear failures."""
        generator = ensure_rng(rng) if rng is not None else self._rng
        self._drop_prob = {
            link: float(generator.uniform(self._noise_low, self._noise_high))
            for link in self._topology.directed_links()
        }
        self._failed.clear()
        self._down.clear()

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def inject_failure(
        self,
        link: DirectedLink | Link,
        drop_rate: float,
        symmetric: bool = False,
    ) -> List[DirectedLink]:
        """Mark ``link`` as failed with per-packet drop probability ``drop_rate``.

        A :class:`DirectedLink` fails only that direction unless ``symmetric``
        is set; a :class:`Link` always fails both directions.  Returns the
        directed links affected.
        """
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError("drop_rate must be in [0, 1]")
        if isinstance(link, Link):
            targets = list(link.directions())
        elif symmetric:
            targets = [link, link.reversed()]
        else:
            targets = [link]
        for target in targets:
            if target not in self._drop_prob:
                raise KeyError(f"unknown link {target}")
            self._drop_prob[target] = float(drop_rate)
            self._failed.add(target)
        return targets

    def clear_failure(self, link: DirectedLink | Link) -> None:
        """Restore ``link`` to a (freshly drawn) noise drop rate."""
        targets = (
            list(link.directions()) if isinstance(link, Link) else [link, link.reversed()]
        )
        for target in targets:
            if target in self._failed:
                self._failed.discard(target)
                self._drop_prob[target] = float(
                    self._rng.uniform(self._noise_low, self._noise_high)
                )
        if isinstance(link, Link):
            self._down.discard(link)
        else:
            self._down.discard(link.undirected())

    def set_link_down(self, link: Link | DirectedLink) -> None:
        """Take a physical link completely down (blackhole: 100% drops)."""
        physical = link.undirected() if isinstance(link, DirectedLink) else link
        self._down.add(physical)
        for direction in physical.directions():
            self._drop_prob[direction] = 1.0
            self._failed.add(direction)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def drop_probability(self, link: DirectedLink) -> float:
        """Per-packet drop probability of a directed link."""
        return self._drop_prob[link]

    def is_down(self, link: DirectedLink | Link) -> bool:
        """True when the physical link is completely down."""
        physical = link.undirected() if isinstance(link, DirectedLink) else link
        return physical in self._down

    def is_failed(self, link: DirectedLink) -> bool:
        """True when this direction carries an injected failure."""
        return link in self._failed

    @property
    def failed_links(self) -> Set[DirectedLink]:
        """Ground-truth set of failed directed links."""
        return set(self._failed)

    def __len__(self) -> int:
        return len(self._drop_prob)
