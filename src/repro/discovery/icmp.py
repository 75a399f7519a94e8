"""Per-switch ICMP rate limiting and accounting.

Switches generate ICMP TTL-exceeded responses on their (weak) control-plane
CPU, so operators cap them — ``Tmax = 100`` responses per second in the
paper's network.  The limiter below enforces that cap per switch per second
and keeps the counters needed to regenerate Table 1 (distribution of ICMP
responses per second per switch).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

DEFAULT_TMAX = 100


@dataclass
class IcmpUsageStats:
    """Summary of per-switch, per-second ICMP response counts (Table 1)."""

    fraction_zero: float
    fraction_low: float
    fraction_high: float
    max_rate: int
    num_samples: int

    def as_row(self) -> Dict[str, float]:
        """Table-1-shaped row: shares of T=0, 0<T<=3, T>3 and max(T)."""
        return {
            "T = 0": self.fraction_zero,
            "T > 0 & T <= 3": self.fraction_low,
            "T > 3": self.fraction_high,
            "max(T)": float(self.max_rate),
        }


class IcmpRateLimiter:
    """Token accounting of ICMP responses per (switch, second).

    ``allow(switch, time_s)`` returns whether the switch still has budget to
    answer one more traceroute probe during that second, and records the
    response when it does.
    """

    def __init__(self, tmax_per_second: int = DEFAULT_TMAX) -> None:
        if tmax_per_second < 1:
            raise ValueError("tmax_per_second must be >= 1")
        self._tmax = tmax_per_second
        self._counts: Dict[Tuple[str, int], int] = defaultdict(int)
        self._switches: set[str] = set()

    # ------------------------------------------------------------------
    @property
    def tmax(self) -> int:
        """The per-switch per-second response cap."""
        return self._tmax

    def register_switch(self, switch: str) -> None:
        """Make a switch visible in the statistics even if it never responds."""
        self._switches.add(switch)

    def register_switches(self, switches: Iterable[str]) -> None:
        """Register many switches at once."""
        for switch in switches:
            self.register_switch(switch)

    def allow(self, switch: str, time_s: float) -> bool:
        """Request one ICMP response from ``switch`` at time ``time_s`` (seconds)."""
        self._switches.add(switch)
        key = (switch, int(time_s))
        if self._counts[key] >= self._tmax:
            return False
        self._counts[key] += 1
        return True

    # ------------------------------------------------------------------
    def usage_stats(self, total_seconds: int) -> IcmpUsageStats:
        """Compute the Table 1 distribution over ``total_seconds`` of operation.

        Every (registered switch, second) pair is a sample; seconds with no
        responses count as ``T = 0`` samples, matching the paper's methodology
        of reporting the distribution of per-second rates over a whole week.
        """
        if total_seconds < 1:
            raise ValueError("total_seconds must be >= 1")
        switches = sorted(self._switches)
        if not switches:
            return IcmpUsageStats(1.0, 0.0, 0.0, 0, 0)
        num_samples = len(switches) * total_seconds
        nonzero = {key: c for key, c in self._counts.items() if c > 0}
        num_nonzero = len(nonzero)
        num_low = sum(1 for c in nonzero.values() if c <= 3)
        num_high = num_nonzero - num_low
        num_zero = num_samples - num_nonzero
        max_rate = max(nonzero.values(), default=0)
        return IcmpUsageStats(
            fraction_zero=num_zero / num_samples,
            fraction_low=num_low / num_samples,
            fraction_high=num_high / num_samples,
            max_rate=int(max_rate),
            num_samples=num_samples,
        )

    def reset(self) -> None:
        """Clear all counters (statistics start over)."""
        self._counts.clear()
