"""Routing matrices: the ``A`` matrix of the paper's optimization programs.

Given the set of flows that experienced retransmissions in an epoch and their
(discovered) paths, the binary program (eq. 3) and the integer program (eq. 4)
operate on a ``C x L`` 0/1 matrix ``A`` where ``A[i, j] = 1`` iff flow ``i``
traverses link ``j``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.routing.paths import Path
from repro.topology.elements import DirectedLink


@dataclass
class RoutingMatrix:
    """A routing matrix together with its row/column labelling."""

    matrix: np.ndarray
    links: List[DirectedLink]
    flow_ids: List[object]
    _column_of: Dict[DirectedLink, int]

    @property
    def num_flows(self) -> int:
        """Number of rows (flows)."""
        return self.matrix.shape[0]

    @property
    def num_links(self) -> int:
        """Number of columns (directed links)."""
        return self.matrix.shape[1]

    def column_of(self, link: DirectedLink) -> int:
        """Column index of ``link`` (raises ``KeyError`` if absent)."""
        return self._column_of[link]


def build_routing_matrix(
    paths: Sequence[Path | Sequence[DirectedLink]],
    flow_ids: Sequence[object] | None = None,
    links: Sequence[DirectedLink] | None = None,
) -> RoutingMatrix:
    """Build a :class:`RoutingMatrix` from flow paths.

    Parameters
    ----------
    paths:
        One path per flow (rows follow this order).  Each entry may be a
        :class:`Path` or a plain sequence of directed links — the latter
        supports partial traceroutes whose known links are not contiguous.
    flow_ids:
        Optional identifiers for the rows; defaults to ``range(len(paths))``.
    links:
        Optional fixed column ordering.  When omitted, the columns are the
        sorted union of all links appearing on the given paths.
    """
    if flow_ids is None:
        flow_ids = list(range(len(paths)))
    if len(flow_ids) != len(paths):
        raise ValueError("flow_ids and paths must have the same length")

    link_lists = [
        tuple(path.links) if isinstance(path, Path) else tuple(path) for path in paths
    ]
    if links is None:
        seen = set()
        for path_links in link_lists:
            seen.update(path_links)
        links = sorted(seen)
    links = list(links)
    column_of = {link: j for j, link in enumerate(links)}

    matrix = np.zeros((len(link_lists), len(links)), dtype=np.int8)
    for i, path_links in enumerate(link_lists):
        for link in path_links:
            j = column_of.get(link)
            if j is not None:
                matrix[i, j] = 1
    return RoutingMatrix(
        matrix=matrix,
        links=links,
        flow_ids=list(flow_ids),
        _column_of=column_of,
    )
