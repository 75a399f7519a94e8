"""Small statistics helpers shared by experiments and metrics."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """Return the ``q``-th percentile (0-100) of ``values`` (nan when empty)."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return float("nan")
    return float(np.percentile(data, q))
