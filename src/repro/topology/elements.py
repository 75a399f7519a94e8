"""Primitive topology elements: switches, hosts, and (directed) links.

The paper reasons about *directed* links — Figure 11 distinguishes a
"ToR-T1 failure" from a "T1-ToR failure" — so the fundamental unit used by
the voting scheme, the simulator, and the routing matrix is
:class:`DirectedLink`.  :class:`Link` represents the undirected physical cable
and is used for inventory and reporting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional


class SwitchTier(enum.IntEnum):
    """Switch tiers of a Clos datacenter (Definition 1 of the paper)."""

    TOR = 0
    T1 = 1
    T2 = 2
    T3 = 3


class NodeKind(enum.Enum):
    """Kind of a topology node."""

    HOST = "host"
    SWITCH = "switch"


class LinkLevel(enum.IntEnum):
    """Level of a link in the Clos hierarchy.

    ``HOST`` links connect a server to its ToR; ``LEVEL1`` links connect ToR
    and tier-1 switches; ``LEVEL2`` links connect tier-1 and tier-2 switches;
    ``LEVEL3`` links connect tier-2 and tier-3 switches (rarely traversed —
    the paper ignores them, see Section 4.1).
    """

    HOST = 0
    LEVEL1 = 1
    LEVEL2 = 2
    LEVEL3 = 3


@dataclass(frozen=True)
class Switch:
    """A switch in the datacenter.

    Attributes
    ----------
    name:
        Unique name, e.g. ``"pod0-tor3"`` or ``"t2-7"``.
    tier:
        Tier of the switch (ToR, T1, T2, T3).
    pod:
        Pod index for ToR/T1 switches; ``None`` for T2/T3 switches which are
        shared across pods.
    index:
        Index of the switch within its tier (and pod, when applicable).
    """

    name: str
    tier: SwitchTier
    index: int
    pod: Optional[int] = None

    @property
    def kind(self) -> NodeKind:
        return NodeKind.SWITCH

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(frozen=True)
class Host:
    """A server attached to a ToR switch."""

    name: str
    tor: str
    pod: int
    index: int

    @property
    def kind(self) -> NodeKind:
        return NodeKind.HOST

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


class DirectedLink(NamedTuple):
    """A directed link ``src -> dst`` between two node names.

    A named tuple: hash, equality and ordering are ``tuple``'s own (C level,
    no Python frame per call), which is what lets the interners
    (:class:`repro.core.arrays.ItemIndex`) resolve hop streams by plain dict
    lookups.  Consequently a link equals the plain tuple ``(src, dst)`` and
    ``json.dumps`` encodes it as a two-element list.
    """

    src: str
    dst: str

    def reversed(self) -> "DirectedLink":
        """Return the link in the opposite direction."""
        return DirectedLink(self.dst, self.src)

    def undirected(self) -> "Link":
        """Return the undirected physical link this direction belongs to."""
        return Link.of(self.src, self.dst)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.src}->{self.dst}"


@dataclass(frozen=True, order=True)
class Link:
    """An undirected physical link; endpoints are stored in sorted order."""

    a: str
    b: str

    @staticmethod
    def of(x: str, y: str) -> "Link":
        """Build a canonical (sorted-endpoint) undirected link."""
        return Link(*sorted((x, y)))

    def directions(self) -> tuple[DirectedLink, DirectedLink]:
        """Both directed links of this physical cable."""
        return DirectedLink(self.a, self.b), DirectedLink(self.b, self.a)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.a}--{self.b}"
