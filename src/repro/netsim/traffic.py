"""Traffic generators: who talks to whom, how many packets, per epoch.

The paper's simulation setup: every host establishes a fixed (or uniformly
random) number of connections per epoch to hosts under a random ToR outside
its own rack, with up to 100 packets per connection.  The skewed and hot-ToR
variants reproduce the Section 6.5 experiments.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Literal, Optional, Sequence, Tuple

import numpy as np

from repro.topology.clos import ClosTopology
from repro.util.rng import RngLike, ensure_rng

#: the traffic patterns a scenario or a traffic shift names.
TrafficKind = Literal["uniform", "skewed", "hot_tor"]


@dataclass(frozen=True)
class TrafficDemand:
    """One connection to establish during an epoch."""

    src_host: str
    dst_host: str
    num_packets: int
    kind: str = "data"


def _sample_packets(
    rng: np.random.Generator, packets_per_flow: int | Tuple[int, int]
) -> int:
    """Draw the packet count of one flow from a fixed value or inclusive range."""
    if isinstance(packets_per_flow, tuple):
        low, high = packets_per_flow
        return int(rng.integers(low, high + 1))
    return int(packets_per_flow)


def _sample_connection_count(
    rng: np.random.Generator, connections_per_host: int | Tuple[int, int]
) -> int:
    """Draw the per-host connection count (fixed or uniform range, Section 6.4)."""
    if isinstance(connections_per_host, tuple):
        low, high = connections_per_host
        return int(rng.integers(low, high + 1))
    return int(connections_per_host)


class TrafficGenerator(abc.ABC):
    """Base class for per-epoch traffic generation."""

    def __init__(
        self,
        topology: ClosTopology,
        connections_per_host: int | Tuple[int, int] = 60,
        packets_per_flow: int | Tuple[int, int] = 100,
    ) -> None:
        self._topology = topology
        self._connections_per_host = connections_per_host
        self._packets_per_flow = packets_per_flow
        self._hosts = topology.index.hosts

    @property
    def topology(self) -> ClosTopology:
        """The topology demands are generated for."""
        return self._topology

    @property
    def connections_per_host(self) -> int | Tuple[int, int]:
        """The configured per-host connection count (fixed value or range)."""
        return self._connections_per_host

    @property
    def packets_per_flow(self) -> int | Tuple[int, int]:
        """The configured per-flow packet count (fixed value or range)."""
        return self._packets_per_flow

    @abc.abstractmethod
    def pick_destination(
        self, rng: np.random.Generator, src_host: str
    ) -> Optional[str]:
        """Pick the destination host for one connection from ``src_host``."""

    def generate(self, epoch: int, rng: RngLike = None) -> List[TrafficDemand]:
        """Generate the connection demands for one epoch."""
        generator = ensure_rng(rng)
        demands: List[TrafficDemand] = []
        for src in self._hosts:
            count = _sample_connection_count(generator, self._connections_per_host)
            for _ in range(count):
                dst = self.pick_destination(generator, src)
                if dst is None or dst == src:
                    continue
                demands.append(
                    TrafficDemand(
                        src_host=src,
                        dst_host=dst,
                        num_packets=_sample_packets(generator, self._packets_per_flow),
                    )
                )
        return demands

    # ------------------------------------------------------------------
    def _outside_rack(self, rng: np.random.Generator, src_tor: str) -> Optional[str]:
        """A uniform draw among the hosts under a ToR other than ``src_tor``
        (the default victims, in host order), or ``None`` when there are none."""
        rack = self._topology.index.tor_hosts[src_tor]
        count = len(self._hosts) - len(rack)
        if not count:
            return None
        k = int(rng.integers(0, count))
        # the rack's hosts are consecutive ids: the k-th host outside it
        return self._hosts[k if k < rack[0] else k + len(rack)]


class UniformTraffic(TrafficGenerator):
    """Each host talks to uniformly random hosts outside its own rack."""

    def pick_destination(
        self, rng: np.random.Generator, src_host: str
    ) -> Optional[str]:
        return self._outside_rack(rng, self._topology.host(src_host).tor)


class SkewedTraffic(TrafficGenerator):
    """Section 6.5 skew: a fraction of flows target hosts under a few hot ToRs.

    Parameters
    ----------
    hot_tors:
        Names of the hot ToR switches.  When omitted, ``num_hot_tors`` ToRs
        are chosen deterministically (the first ones in sorted order).
    hot_fraction:
        Probability that a connection targets a host under a hot ToR
        (the paper uses 0.8 with 25% of ToRs hot).
    """

    def __init__(
        self,
        topology: ClosTopology,
        connections_per_host: int | Tuple[int, int] = 60,
        packets_per_flow: int | Tuple[int, int] = 100,
        hot_tors: Optional[Sequence[str]] = None,
        num_hot_tors: int = 10,
        hot_fraction: float = 0.8,
    ) -> None:
        super().__init__(topology, connections_per_host, packets_per_flow)
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        all_tors = [s.name for s in topology.tors()]
        if hot_tors is None:
            hot_tors = all_tors[: min(num_hot_tors, len(all_tors))]
        unknown = set(hot_tors) - set(all_tors)
        if unknown:
            raise ValueError(f"unknown hot ToRs: {sorted(unknown)}")
        self._hot_tors = list(hot_tors)
        self._hot_fraction = hot_fraction
        hot = set(self._hot_tors)
        self._hot_hosts = [h for h in self._hosts if topology.host(h).tor in hot]
        #: a source under a hot ToR draws among the hot hosts outside it
        self._hot_outside = {
            tor: [h for h in self._hot_hosts if topology.host(h).tor != tor]
            for tor in hot
        }

    @property
    def hot_tors(self) -> List[str]:
        """The ToRs receiving the skewed share of traffic."""
        return list(self._hot_tors)

    def pick_destination(
        self, rng: np.random.Generator, src_host: str
    ) -> Optional[str]:
        src_tor = self._topology.host(src_host).tor
        if rng.random() < self._hot_fraction:
            candidates = self._hot_outside.get(src_tor, self._hot_hosts)
            if candidates:
                return candidates[int(rng.integers(0, len(candidates)))]
        return self._outside_rack(rng, src_tor)


class HotTorTraffic(SkewedTraffic):
    """Section 6.5 "hot ToR": a single sink ToR attracts a fraction of all flows."""

    def __init__(
        self,
        topology: ClosTopology,
        hot_tor: Optional[str] = None,
        skew: float = 0.5,
        connections_per_host: int | Tuple[int, int] = 60,
        packets_per_flow: int | Tuple[int, int] = 100,
    ) -> None:
        all_tors = [s.name for s in topology.tors()]
        if hot_tor is None:
            hot_tor = all_tors[0]
        super().__init__(
            topology,
            connections_per_host=connections_per_host,
            packets_per_flow=packets_per_flow,
            hot_tors=[hot_tor],
            hot_fraction=skew,
        )

    @property
    def hot_tor(self) -> str:
        """The single sink ToR."""
        return self._hot_tors[0]


def traffic_generator(
    topology: ClosTopology,
    spec,
    connections_per_host: int | Tuple[int, int],
    packets_per_flow: int | Tuple[int, int],
) -> TrafficGenerator:
    """The generator ``spec.traffic`` names.  ``spec`` is a scenario config
    or a traffic shift: both carry ``num_hot_tors``, ``hot_fraction`` and
    ``hot_tor_skew``."""
    sizes = dict(connections_per_host=connections_per_host, packets_per_flow=packets_per_flow)
    if spec.traffic == "uniform":
        return UniformTraffic(topology, **sizes)
    if spec.traffic == "skewed":
        return SkewedTraffic(
            topology, num_hot_tors=spec.num_hot_tors, hot_fraction=spec.hot_fraction, **sizes
        )
    if spec.traffic == "hot_tor":
        return HotTorTraffic(topology, skew=spec.hot_tor_skew, **sizes)
    raise ValueError(f"unknown traffic kind {spec.traffic!r}")
