"""Path objects: ordered sequences of directed links between two hosts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.topology.elements import DirectedLink


@dataclass(frozen=True)
class Path:
    """An ordered, loop-free sequence of directed links from ``src`` to ``dst``."""

    links: Tuple[DirectedLink, ...]

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError("a path must contain at least one link")
        for prev, nxt in zip(self.links, self.links[1:]):
            if prev.dst != nxt.src:
                raise ValueError(
                    f"path is not contiguous: {prev} followed by {nxt}"
                )

    @staticmethod
    def from_nodes(nodes: Sequence[str]) -> "Path":
        """Build a path from an ordered node sequence (``len(nodes) >= 2``)."""
        if len(nodes) < 2:
            raise ValueError("need at least two nodes to form a path")
        return Path(tuple(DirectedLink(a, b) for a, b in zip(nodes, nodes[1:])))

    # ------------------------------------------------------------------
    @property
    def src(self) -> str:
        """Origin node of the path."""
        return self.links[0].src

    @property
    def dst(self) -> str:
        """Final node of the path."""
        return self.links[-1].dst

    @property
    def hop_count(self) -> int:
        """Number of links on the path (the paper's ``h``)."""
        return len(self.links)

    def nodes(self) -> List[str]:
        """Ordered node names along the path."""
        return [self.links[0].src] + [link.dst for link in self.links]

    def prefix(self, num_links: int) -> "Path":
        """Return the first ``num_links`` links (used for partial traceroutes)."""
        if num_links < 1:
            raise ValueError("prefix must keep at least one link")
        return Path(self.links[: num_links])

    def __iter__(self) -> Iterator[DirectedLink]:
        return iter(self.links)

    def __len__(self) -> int:
        return len(self.links)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return " -> ".join(self.nodes())
