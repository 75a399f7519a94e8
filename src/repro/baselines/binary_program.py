"""The binary program of equation (3): minimum set cover as a MILP.

    minimize   ||p||_0
    subject to A p >= s,   p in {0, 1}^L

``A`` is the routing matrix of flows with retransmissions and ``s`` the
all-ones status vector.  The problem is NP-hard; the paper solves it exactly
with a commercial MILP solver purely as a benchmark.  We solve it exactly with
``scipy.optimize.milp`` when the instance is small enough and fall back to the
greedy approximation (MAX COVERAGE) otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.baselines.setcover import greedy_max_coverage
from repro.routing.routing_matrix import RoutingMatrix
from repro.topology.elements import DirectedLink

#: above this many matrix entries the exact solver is skipped by default.
DEFAULT_EXACT_SIZE_LIMIT = 2_000_000


@dataclass
class BinaryProgramResult:
    """Solution of the binary program."""

    blamed_links: List[DirectedLink] = field(default_factory=list)
    exact: bool = False
    objective: float = 0.0

    @property
    def num_blamed(self) -> int:
        """Number of links the program blames."""
        return len(self.blamed_links)


def solve_binary_program(
    routing: RoutingMatrix,
    exact: Optional[bool] = None,
    time_limit_s: float = 30.0,
) -> BinaryProgramResult:
    """Solve (or approximate) the binary program for ``routing``.

    Parameters
    ----------
    routing:
        Routing matrix of the flows that experienced retransmissions.
    exact:
        Force the exact MILP (``True``), force the greedy approximation
        (``False``), or decide automatically based on instance size (``None``).
    time_limit_s:
        Time limit handed to the MILP solver; on timeout the incumbent (or the
        greedy solution when none exists) is returned.
    """
    num_flows, num_links = routing.matrix.shape
    if num_flows == 0 or num_links == 0:
        return BinaryProgramResult(blamed_links=[], exact=True, objective=0.0)

    if exact is None:
        exact = routing.matrix.size <= DEFAULT_EXACT_SIZE_LIMIT
    if not exact:
        blamed = greedy_max_coverage(routing)
        return BinaryProgramResult(blamed_links=blamed, exact=False, objective=len(blamed))

    from scipy.optimize import Bounds, LinearConstraint, milp  # exact solve only

    matrix = routing.matrix.astype(float)
    ones = np.ones(num_flows)
    constraint = LinearConstraint(matrix, lb=ones, ub=np.inf)
    result = milp(
        c=np.ones(num_links),
        constraints=[constraint],
        integrality=np.ones(num_links),
        bounds=Bounds(lb=0, ub=1),
        options={"time_limit": time_limit_s},
    )
    if result.x is None:
        blamed = greedy_max_coverage(routing)
        return BinaryProgramResult(blamed_links=blamed, exact=False, objective=len(blamed))

    chosen = np.flatnonzero(np.round(result.x) >= 1)
    blamed = [routing.links[int(i)] for i in chosen]
    return BinaryProgramResult(
        blamed_links=blamed, exact=True, objective=float(result.fun)
    )
