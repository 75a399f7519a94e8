"""Deterministic per-switch hashed ECMP forwarding over a Clos topology.

Every switch hashes the packet five-tuple together with a private seed to pick
one of its equal-cost next hops (RFC 2992 style).  The seeds are unknown to
the end hosts — mirroring the paper's observation that ECMP functions are
proprietary and change across reboots — which is why 007 must *measure* paths
with traceroute instead of computing them.

The router also honours a ``link_down`` predicate so that BGP-style rerouting
around failed links can be simulated.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.routing.fivetuple import FiveTuple
from repro.routing.paths import Path
from repro.topology.clos import ClosTopology
from repro.topology.elements import DirectedLink
from repro.util.rng import RngLike, ensure_rng

LinkDownPredicate = Callable[[DirectedLink], bool]


class NoRouteError(RuntimeError):
    """Raised when every candidate next hop toward the destination is down."""


_MASK64 = (1 << 64) - 1


def _stable_hash(*parts: object) -> int:
    """A process-stable 32-bit hash of the given parts.

    CRC-32 alone is affine over GF(2): with a power-of-two fan-out, each
    switch's ``h % n`` is one fixed linear map of the flow key XOR a constant
    of its seed, so switches choose in lockstep (ECMP polarization) and a
    cross-pod flow never takes some (T1, T2, T1') combinations.  The
    splitmix64 finalizer over the CRC breaks the linearity.
    """
    x = zlib.crc32("|".join(str(p) for p in parts).encode("utf-8"))
    x = (x * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x & 0xFFFFFFFF


class EcmpRouter:
    """ECMP routing over a :class:`~repro.topology.clos.ClosTopology`.

    Parameters
    ----------
    topology:
        The Clos topology to route over.
    rng:
        Seed or generator used to draw the per-switch hash seeds.
    link_down:
        Optional predicate; next hops whose outgoing link satisfies it are
        excluded from the ECMP group (models BGP withdrawing routes over
        failed links).
    cache_paths:
        Memoize :meth:`route` results per ``(five-tuple, src, dst)``.  ECMP is
        a pure function of the hash inputs and the switch seeds, so repeated
        lookups (data packets, then the traceroute of the same flow, then
        re-routes across epochs) hit the cache.  Caching suspends itself while
        a custom ``link_down`` predicate is installed — predicates are often
        stateful and can change
        routing without the router seeing a mutation.
    max_cached_routes:
        Size bound of the memo table.  Long runs route a fresh source port per
        connection, so the table would otherwise grow without limit; when the
        bound is hit the table is dropped wholesale (epoch-cache semantics)
        and refills with the currently-hot flows.
    """

    DEFAULT_MAX_CACHED_ROUTES = 200_000

    def __init__(
        self,
        topology: ClosTopology,
        rng: RngLike = 0,
        link_down: Optional[LinkDownPredicate] = None,
        cache_paths: bool = True,
        max_cached_routes: int = DEFAULT_MAX_CACHED_ROUTES,
    ) -> None:
        self._topology = topology
        self._rng = ensure_rng(rng)
        self._link_down = link_down or (lambda link: False)
        self._has_custom_link_down = link_down is not None
        self._cache_paths = cache_paths
        self._max_cached_routes = max(1, int(max_cached_routes))
        self._route_cache: Dict[Tuple[tuple, str, str], Path] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self._seeds = {
            name: int(self._rng.integers(0, 2**31 - 1))
            for name in sorted(topology.switches)
        }

    # ------------------------------------------------------------------
    @property
    def topology(self) -> ClosTopology:
        """The topology this router forwards over."""
        return self._topology

    def reseed_switch(self, switch: str, rng: RngLike = None) -> None:
        """Change a switch's ECMP seed, as happens when the switch reboots."""
        generator = ensure_rng(rng) if rng is not None else self._rng
        self._seeds[switch] = int(generator.integers(0, 2**31 - 1))
        self.clear_route_cache()

    # ------------------------------------------------------------------
    @property
    def cache_enabled(self) -> bool:
        """True when :meth:`route` results are currently being memoized."""
        return self._cache_paths and not self._has_custom_link_down

    def clear_route_cache(self) -> None:
        """Drop every memoized route (seeds or reachability changed)."""
        self._route_cache.clear()

    # ------------------------------------------------------------------
    def route(self, flow: FiveTuple, src_host: str, dst_host: str) -> Path:
        """Compute the path the packets of ``flow`` take from ``src_host`` to ``dst_host``.

        Raises :class:`NoRouteError` when a switch on the way has no live next
        hop toward the destination.
        """
        topo = self._topology
        if not topo.is_host(src_host) or not topo.is_host(dst_host):
            raise ValueError("route() endpoints must be hosts")
        if src_host == dst_host:
            raise ValueError("cannot route a flow from a host to itself")

        caching = self.cache_enabled
        if caching:
            key = (flow.canonical_key(), src_host, dst_host)
            cached = self._route_cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                return cached
            self.cache_misses += 1

        path = self._compute_route(flow, src_host, dst_host)
        if caching:
            if len(self._route_cache) >= self._max_cached_routes:
                self._route_cache.clear()
            self._route_cache[key] = path
        return path

    def _compute_route(self, flow: FiveTuple, src_host: str, dst_host: str) -> Path:
        """Walk the fabric hop by hop, hashing the flow at every ECMP group."""
        topo = self._topology
        nodes: List[str] = [src_host]
        src_tor = topo.host(src_host).tor
        dst_tor = topo.host(dst_host).tor
        dst_pod = topo.host(dst_host).pod
        self._append_hop(nodes, src_host, src_tor)

        if src_tor == dst_tor:
            self._append_hop(nodes, src_tor, dst_host)
            return Path.from_nodes(nodes)

        # Up to a tier-1 switch of the source pod.
        src_pod = topo.host(src_host).pod
        pod_t1s = topo.index.pod_t1_names
        t1 = self._select(src_tor, flow, pod_t1s[src_pod])
        self._append_hop(nodes, src_tor, t1)

        if src_pod == dst_pod:
            self._append_hop(nodes, t1, dst_tor)
            self._append_hop(nodes, dst_tor, dst_host)
            return Path.from_nodes(nodes)

        # Cross-pod: up to a tier-2 switch, down into the destination pod.
        t2 = self._select(t1, flow, topo.index.t2_names)
        self._append_hop(nodes, t1, t2)

        dst_t1 = self._select(t2, flow, pod_t1s[dst_pod])
        self._append_hop(nodes, t2, dst_t1)

        self._append_hop(nodes, dst_t1, dst_tor)
        self._append_hop(nodes, dst_tor, dst_host)
        return Path.from_nodes(nodes)

    # ------------------------------------------------------------------
    def all_paths(self, src_host: str, dst_host: str) -> List[Path]:
        """Enumerate every ECMP-usable path between two hosts (ignoring failures).

        A test oracle (``TEST_ORACLES`` in ``tests/test_public_names.py``);
        nothing in the package calls it.  The count is ``n1`` for intra-pod
        flows and ``n1 * n2 * n1`` for cross-pod flows.
        """
        topo = self._topology
        src = topo.host(src_host)
        dst = topo.host(dst_host)
        if src.tor == dst.tor:
            return [Path.from_nodes([src_host, src.tor, dst_host])]
        pod_t1s = topo.index.pod_t1_names
        if src.pod == dst.pod:
            return [
                Path.from_nodes([src_host, src.tor, t1, dst.tor, dst_host])
                for t1 in pod_t1s[src.pod]
            ]
        return [
            Path.from_nodes([src_host, src.tor, t1, t2, dst_t1, dst.tor, dst_host])
            for t1 in pod_t1s[src.pod]
            for t2 in topo.index.t2_names
            for dst_t1 in pod_t1s[dst.pod]
        ]

    # ------------------------------------------------------------------
    def _select(self, switch: str, flow: FiveTuple, candidates: Sequence[str]) -> str:
        """Pick the next hop at ``switch`` among ``candidates`` for ``flow``."""
        live = [
            c
            for c in candidates
            if not self._link_down(DirectedLink(switch, c))
        ]
        if not live:
            raise NoRouteError(
                f"switch {switch} has no live next hop toward any of {list(candidates)}"
            )
        index = _stable_hash(flow.canonical_key(), self._seeds[switch]) % len(live)
        return live[index]

    def _append_hop(self, nodes: List[str], src: str, dst: str) -> None:
        """Append ``dst`` to ``nodes`` after checking the ``src``->``dst`` link is live."""
        if self._link_down(DirectedLink(src, dst)):
            raise NoRouteError(f"link {src}->{dst} is down and has no ECMP alternative")
        nodes.append(dst)
