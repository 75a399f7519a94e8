"""Datacenter topology substrate.

Provides the parametric Clos topology the paper's theorems are stated for,
its integer index (:class:`FabricIndex`, built once per topology as
``ClosTopology.index``), and node/link primitives.
"""

from repro.topology.elements import (
    DirectedLink,
    Host,
    Link,
    LinkLevel,
    NodeKind,
    Switch,
    SwitchTier,
)
from repro.topology.clos import ClosParameters, ClosTopology, FabricIndex

__all__ = [
    "DirectedLink",
    "Host",
    "Link",
    "LinkLevel",
    "NodeKind",
    "Switch",
    "SwitchTier",
    "ClosParameters",
    "ClosTopology",
    "FabricIndex",
]
