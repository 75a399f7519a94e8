"""The integer program of equation (4): drop-count assignment as a MILP.

    minimize   ||p||_0
    subject to A p >= c
               ||p||_1 = ||c||_1
               p_i in {0, 1, 2, ...}

``c`` collects the number of retransmissions of each flow; the solution
assigns a drop count to each link, which induces a ranking (more drops =
worse link).  The ``||p||_0`` objective is linearised with indicator binaries
``y_i`` and the big-M constraints ``p_i <= M y_i``.

Like the binary program this is NP-hard and used only as a benchmark; a
greedy weighted-cover heuristic stands in when the instance is too large for
the exact solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.routing.routing_matrix import RoutingMatrix
from repro.topology.elements import DirectedLink

DEFAULT_EXACT_SIZE_LIMIT = 500_000


@dataclass
class IntegerProgramResult:
    """Solution of the integer program."""

    drop_counts: Dict[DirectedLink, float] = field(default_factory=dict)
    exact: bool = False

    @property
    def blamed_links(self) -> List[DirectedLink]:
        """Links with a positive drop count, sorted by decreasing count."""
        return [
            link
            for link, count in sorted(
                self.drop_counts.items(), key=lambda kv: (-kv[1], kv[0])
            )
            if count > 0
        ]

    def ranking(self) -> List[Tuple[DirectedLink, float]]:
        """``(link, assigned drops)`` sorted by decreasing drops."""
        return sorted(self.drop_counts.items(), key=lambda kv: (-kv[1], kv[0]))

    @property
    def num_blamed(self) -> int:
        """Number of links with positive assigned drops."""
        return len(self.blamed_links)


def solve_integer_program(
    routing: RoutingMatrix,
    retransmissions: Sequence[int],
    exact: Optional[bool] = None,
    time_limit_s: float = 30.0,
) -> IntegerProgramResult:
    """Solve (or approximate) the integer program.

    Parameters
    ----------
    routing:
        Routing matrix of the flows with retransmissions.
    retransmissions:
        Per-flow retransmission counts (the vector ``c``), aligned with the
        matrix rows.
    exact, time_limit_s:
        As in :func:`~repro.baselines.binary_program.solve_binary_program`.
    """
    num_flows, num_links = routing.matrix.shape
    if len(retransmissions) != num_flows:
        raise ValueError("retransmissions must align with the routing matrix rows")
    if num_flows == 0 or num_links == 0:
        return IntegerProgramResult(drop_counts={}, exact=True)

    counts = np.asarray(retransmissions, dtype=float)
    if exact is None:
        exact = routing.matrix.size <= DEFAULT_EXACT_SIZE_LIMIT
    if exact:
        result = _solve_exact(routing, counts, time_limit_s)
        if result is not None:
            return result
    return _solve_greedy(routing, counts)


# ----------------------------------------------------------------------
def _solve_exact(
    routing: RoutingMatrix, counts: np.ndarray, time_limit_s: float
) -> Optional[IntegerProgramResult]:
    """Exact MILP formulation; returns ``None`` when the solver fails."""
    from scipy.optimize import Bounds, LinearConstraint, milp  # exact solve only

    num_flows, num_links = routing.matrix.shape
    total = float(counts.sum())
    big_m = max(total, 1.0)

    # Variables: [p_0..p_{L-1}, y_0..y_{L-1}]
    num_vars = 2 * num_links
    objective = np.concatenate([np.zeros(num_links), np.ones(num_links)])

    a_matrix = routing.matrix.astype(float)
    cover = LinearConstraint(
        np.hstack([a_matrix, np.zeros((num_flows, num_links))]),
        lb=counts,
        ub=np.inf,
    )
    conservation = LinearConstraint(
        np.concatenate([np.ones(num_links), np.zeros(num_links)]).reshape(1, -1),
        lb=total,
        ub=total,
    )
    indicator = LinearConstraint(
        np.hstack([np.eye(num_links), -big_m * np.eye(num_links)]),
        lb=-np.inf,
        ub=np.zeros(num_links),
    )
    bounds = Bounds(
        lb=np.zeros(num_vars),
        ub=np.concatenate([np.full(num_links, big_m), np.ones(num_links)]),
    )
    result = milp(
        c=objective,
        constraints=[cover, conservation, indicator],
        integrality=np.ones(num_vars),
        bounds=bounds,
        options={"time_limit": time_limit_s},
    )
    if result.x is None:
        return None
    drops = np.round(result.x[:len(routing.links)])
    drop_counts = {
        routing.links[i]: float(drops[i]) for i in range(len(routing.links)) if drops[i] > 0
    }
    return IntegerProgramResult(drop_counts=drop_counts, exact=True)


def _solve_greedy(routing: RoutingMatrix, counts: np.ndarray) -> IntegerProgramResult:
    """Greedy heuristic: repeatedly blame the link carrying the most unexplained drops."""
    matrix = routing.matrix
    remaining = counts.copy()
    drop_counts: Dict[DirectedLink, float] = {}

    while remaining.sum() > 0:
        weights = matrix.T @ remaining
        best = int(np.argmax(weights))
        if weights[best] <= 0:
            break
        rows = np.flatnonzero(matrix[:, best] > 0)
        explained = float(remaining[rows].sum())
        drop_counts[routing.links[best]] = drop_counts.get(routing.links[best], 0.0) + explained
        remaining[rows] = 0.0
    return IntegerProgramResult(drop_counts=drop_counts, exact=False)
