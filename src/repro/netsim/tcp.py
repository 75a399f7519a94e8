"""Flow-level TCP transfer model.

A connection sends ``num_packets`` data packets along its path.  Each link
drops each arriving packet independently with the link's drop probability.
TCP is reliable: every dropped packet is detected (fast retransmit or RTO) and
retransmitted in a later round, where it is again exposed to drops.  The
number of *retransmissions* observed by the sender equals the total number of
drops across rounds — this is exactly the signal ETW reports to the 007
monitoring agent.

The model deliberately stays at the flow level (no per-packet sequence
numbers, no congestion window): the paper's own evaluation uses the same
abstraction, and Theorem 2 only depends on the probability that a connection
sees at least one drop on a given link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.netsim.links import LinkStateTable
from repro.routing.paths import Path
from repro.topology.elements import DirectedLink
from repro.util.rng import RngLike, ensure_rng


@dataclass
class TransferResult:
    """Outcome of transferring one connection's packets over its path."""

    num_packets: int
    packets_delivered: int
    packets_lost: int
    retransmissions: int
    drops_by_link: Dict[DirectedLink, int] = field(default_factory=dict)
    rounds: int = 1
    connection_failed: bool = False

    @property
    def has_retransmission(self) -> bool:
        """True when the sender observed at least one retransmission."""
        return self.retransmissions > 0

    @property
    def total_drops(self) -> int:
        """Total packets dropped across all transmission rounds."""
        return int(sum(self.drops_by_link.values()))

    def dominant_drop_link(self) -> Optional[DirectedLink]:
        """The link that dropped the most packets (ground truth for accuracy).

        Ties are broken deterministically by link ordering.  Returns ``None``
        when no packet was dropped.
        """
        if not self.drops_by_link:
            return None
        return max(sorted(self.drops_by_link), key=lambda l: self.drops_by_link[l])


def simulate_transfer(
    path: Path,
    num_packets: int,
    link_table: LinkStateTable,
    rng: RngLike = None,
    max_rounds: int = 4,
) -> TransferResult:
    """Simulate a TCP transfer of ``num_packets`` packets along ``path``.

    Parameters
    ----------
    path:
        The (forward) path of the connection.
    num_packets:
        Number of distinct data packets to deliver.
    link_table:
        Per-link drop probabilities.
    rng:
        Seed or generator.
    max_rounds:
        Maximum number of transmission rounds (original + retransmissions).
        Packets still undelivered after ``max_rounds`` mark the connection as
        failed — the VM-reboot model keys off this flag.

    Returns
    -------
    TransferResult
        Drop counts per link, retransmission count and delivery statistics.
    """
    if num_packets < 0:
        raise ValueError("num_packets must be >= 0")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    generator = ensure_rng(rng)

    drop_probs = np.array(
        [link_table.drop_probability(link) for link in path.links], dtype=float
    )
    pvals = _round_outcome_pvals(drop_probs)
    num_links = len(path.links)
    drops = np.zeros(num_links, dtype=np.int64)
    delivered = 0
    outstanding = num_packets
    rounds = 0

    while outstanding > 0 and rounds < max_rounds:
        rounds += 1
        counts = generator.multinomial(outstanding, pvals)
        drops += counts[:num_links]
        delivered += int(counts[num_links])
        outstanding -= int(counts[num_links])

    drops_by_link = {
        link: int(count) for link, count in zip(path.links, drops) if count
    }
    return TransferResult(
        num_packets=num_packets,
        packets_delivered=delivered,
        packets_lost=outstanding,
        retransmissions=int(drops.sum()),
        drops_by_link=drops_by_link,
        rounds=max(rounds, 1),
        connection_failed=outstanding > 0,
    )


def _round_outcome_pvals(drop_probs: np.ndarray) -> np.ndarray:
    """Per-round outcome probabilities of one packet over a path.

    A packet traversing links with drop probabilities ``p_1 .. p_L`` is dropped
    at link ``j`` with probability ``p_j * prod_{k<j}(1 - p_k)`` and survives
    the whole path with probability ``prod_k (1 - p_k)`` — a single multinomial
    over ``L + 1`` outcomes, exactly equivalent in distribution to sampling a
    binomial chain link by link.  Supports a batched 2-D input of shape
    ``(num_flows, L)`` (pad short paths with drop probability 0).
    """
    survive = np.cumprod(1.0 - drop_probs, axis=-1)
    reach = np.concatenate(
        [np.ones_like(drop_probs[..., :1]), survive[..., :-1]], axis=-1
    )
    pvals = np.concatenate(
        [drop_probs * reach, survive[..., -1:]], axis=-1
    )
    # Guard against float round-off: rows must be non-negative and sum to 1.
    np.clip(pvals, 0.0, 1.0, out=pvals)
    pvals /= pvals.sum(axis=-1, keepdims=True)
    return pvals


def simulate_transfers_batch(
    paths: Sequence[Path],
    num_packets: Sequence[int] | int,
    link_table: LinkStateTable,
    rng: RngLike = None,
    max_rounds: int = 4,
) -> List[TransferResult]:
    """Simulate many TCP transfers at once with vectorized sampling.

    Equivalent in distribution to calling :func:`simulate_transfer` per flow,
    but the per-round losses of *all* flows are drawn with a single batched
    multinomial: each flow's link drop probabilities are stacked into one
    matrix (short paths padded with drop probability 0) and each round is one
    ``Generator.multinomial`` call over the whole batch.

    Parameters
    ----------
    paths:
        The (forward) path of every connection.
    num_packets:
        Per-flow packet counts, or one count shared by every flow.
    link_table, rng, max_rounds:
        As for :func:`simulate_transfer`.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    num_flows = len(paths)
    if isinstance(num_packets, (int, np.integer)):
        packets = np.full(num_flows, int(num_packets), dtype=np.int64)
    else:
        packets = np.asarray(num_packets, dtype=np.int64)
    if len(packets) != num_flows:
        raise ValueError("need one packet count per path")
    if np.any(packets < 0):
        raise ValueError("num_packets must be >= 0")
    if num_flows == 0:
        return []
    generator = ensure_rng(rng)

    hop_counts = np.array([len(path.links) for path in paths], dtype=np.int64)
    max_hops = int(hop_counts.max())
    probs = np.zeros((num_flows, max_hops), dtype=float)
    for i, path in enumerate(paths):
        probs[i, : hop_counts[i]] = [
            link_table.drop_probability(link) for link in path.links
        ]
    pvals = _round_outcome_pvals(probs)

    drops = np.zeros((num_flows, max_hops), dtype=np.int64)
    delivered = np.zeros(num_flows, dtype=np.int64)
    outstanding = packets.copy()
    rounds_taken = np.zeros(num_flows, dtype=np.int64)

    for _ in range(max_rounds):
        active = outstanding > 0
        if not active.any():
            break
        rounds_taken += active
        # Flows with outstanding == 0 draw all-zero rows, so no masking needed.
        counts = generator.multinomial(outstanding, pvals)
        drops += counts[:, :max_hops]
        delivered += counts[:, max_hops]
        outstanding -= counts[:, max_hops]

    results: List[TransferResult] = []
    for i, path in enumerate(paths):
        row = drops[i]
        drops_by_link = {
            link: int(count) for link, count in zip(path.links, row) if count
        }
        results.append(
            TransferResult(
                num_packets=int(packets[i]),
                packets_delivered=int(delivered[i]),
                packets_lost=int(outstanding[i]),
                retransmissions=int(row.sum()),
                drops_by_link=drops_by_link,
                rounds=max(int(rounds_taken[i]), 1),
                connection_failed=bool(outstanding[i] > 0),
            )
        )
    return results
