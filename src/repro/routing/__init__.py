"""Routing substrate: five-tuples, ECMP forwarding, paths and routing matrices."""

from repro.routing.fivetuple import FiveTuple
from repro.routing.paths import Path
from repro.routing.ecmp import EcmpRouter
from repro.routing.routing_matrix import RoutingMatrix, build_routing_matrix

__all__ = [
    "FiveTuple",
    "Path",
    "EcmpRouter",
    "RoutingMatrix",
    "build_routing_matrix",
]
