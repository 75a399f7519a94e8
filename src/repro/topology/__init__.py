"""Datacenter topology substrate.

Provides the parametric Clos topology the paper's theorems are stated for,
node/link primitives, and IP addressing (including the router-alias map
used by the path discovery agent).
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
from repro.topology.clos import ClosParameters, ClosTopology
from repro.topology.addressing import AddressPlan

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
    "AddressPlan",
]
