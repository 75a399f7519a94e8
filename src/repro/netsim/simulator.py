"""The epoch-driven flow-level simulator.

Each epoch (30 s in the paper) the simulator asks the traffic generator for
connection demands, establishes each connection (optionally through the
software load balancer), routes it with ECMP, simulates its TCP transfer over
the per-link drop probabilities, and raises :class:`RetransmissionEvent`s to
subscribers (the 007 monitoring agent) exactly as ETW would on the end host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.netsim.events import ConnectionSetupFailureEvent, RetransmissionEvent
from repro.netsim.flows import FlowRecord
from repro.netsim.links import LinkStateTable
from repro.netsim.tcp import TransferResult, simulate_transfers_batch
from repro.netsim.traffic import TrafficDemand, TrafficGenerator
from repro.routing.ecmp import EcmpRouter, NoRouteError
from repro.routing.fivetuple import FiveTuple
from repro.routing.paths import Path
from repro.topology.clos import ClosTopology
from repro.util.rng import RngLike, ensure_rng

EventCallback = Callable[[object], None]

#: destination port used per flow kind (storage flows mimic SMB image mounts).
_PORT_BY_KIND = {"data": 443, "storage": 445, "background": 80}


class _PendingTransfer(TransferResult):
    """Placeholder result of an established flow awaiting its batched transfer."""

    def __init__(self, num_packets: int) -> None:
        super().__init__(
            num_packets=num_packets,
            packets_delivered=0,
            packets_lost=num_packets,
            retransmissions=0,
            drops_by_link={},
            connection_failed=True,
        )


@dataclass
class SimulationConfig:
    """Tunables of the epoch simulator."""

    epoch_duration_s: float = 30.0
    max_rounds: int = 4
    syn_retries: int = 3
    base_src_port: int = 1024
    simulate_setup_failures: bool = True
    #: how many established connections are simulated per vectorized TCP batch
    #: (bounds the working-set size of the stacked drop-probability matrices).
    transfer_batch_size: int = 4096


@dataclass
class EpochResult:
    """Everything that happened during one simulated epoch."""

    epoch: int
    flows: List[FlowRecord] = field(default_factory=list)
    retransmission_events: List[RetransmissionEvent] = field(default_factory=list)
    setup_failures: List[ConnectionSetupFailureEvent] = field(default_factory=list)

    @property
    def num_flows(self) -> int:
        """Number of connections attempted this epoch."""
        return len(self.flows)

    @property
    def total_drops(self) -> int:
        """Total packets dropped across all flows this epoch."""
        return sum(f.result.total_drops for f in self.flows)

    def drops_by_flow(self) -> Dict[int, int]:
        """Mapping flow_id -> number of packets dropped (only flows with drops)."""
        return {
            f.flow_id: f.result.total_drops
            for f in self.flows
            if f.result.total_drops > 0
        }


class EpochSimulator:
    """Drives the network simulation epoch by epoch.

    Parameters
    ----------
    topology, router, link_table, traffic:
        The substrates to simulate over.
    slb:
        Optional :class:`~repro.slb.loadbalancer.SoftwareLoadBalancer`.  When
        present, connections are established against a VIP and the data
        packets carry the DIP chosen by the SLB, as in the paper's datacenter.
    config:
        Simulation tunables.
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        topology: ClosTopology,
        router: EcmpRouter,
        link_table: LinkStateTable,
        traffic: TrafficGenerator,
        slb: Optional["SoftwareLoadBalancer"] = None,
        config: Optional[SimulationConfig] = None,
        rng: RngLike = 0,
    ) -> None:
        self._topology = topology
        self._router = router
        self._link_table = link_table
        self._traffic = traffic
        self._slb = slb
        self._config = config or SimulationConfig()
        self._rng = ensure_rng(rng)
        self._subscribers: List[EventCallback] = []
        self._next_flow_id = 0
        self._next_src_port = self._config.base_src_port

    # ------------------------------------------------------------------
    @property
    def topology(self) -> ClosTopology:
        return self._topology

    @property
    def router(self) -> EcmpRouter:
        return self._router

    @property
    def link_table(self) -> LinkStateTable:
        return self._link_table

    @property
    def config(self) -> SimulationConfig:
        return self._config

    @property
    def traffic(self) -> TrafficGenerator:
        """The traffic generator driving the epochs."""
        return self._traffic

    def set_traffic(self, traffic: TrafficGenerator) -> None:
        """Swap the traffic generator (time-varying scenarios shift workloads)."""
        self._traffic = traffic

    def subscribe(self, callback: EventCallback) -> None:
        """Register a callback invoked with every host-observable event."""
        self._subscribers.append(callback)

    # ------------------------------------------------------------------
    def run_epoch(self, epoch: int, demands: Optional[Sequence[TrafficDemand]] = None) -> EpochResult:
        """Simulate one epoch; returns its :class:`EpochResult`.

        The epoch runs in two phases.  First every demand is *established*:
        SLB VIP resolution, ECMP routing (served by the router's path cache
        for repeated five-tuple hash inputs) and the SYN handshake.  Then the
        established connections' TCP transfers are simulated in grouped
        vectorized batches instead of one flow at a time.
        """
        if demands is None:
            demands = self._traffic.generate(epoch, rng=self._rng)
        result = EpochResult(epoch=epoch)

        established = [
            flow
            for demand in demands
            if (flow := self._establish_connection(epoch, demand, result)) is not None
        ]
        self._transfer_batches(epoch, established, result)
        return result

    def run(self, num_epochs: int, start_epoch: int = 0) -> List[EpochResult]:
        """Simulate ``num_epochs`` consecutive epochs."""
        return [self.run_epoch(start_epoch + i) for i in range(num_epochs)]

    # ------------------------------------------------------------------
    def _establish_connection(
        self, epoch: int, demand: TrafficDemand, result: EpochResult
    ) -> Optional[FlowRecord]:
        """Set up one connection; returns its (transfer-less) flow record.

        Returns ``None`` when the network has no usable path at all.  When the
        SYN handshake fails, the record is returned with a failed
        :class:`TransferResult` already attached and appended to
        ``result.flows`` — the batch-transfer phase skips it.
        """
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        src_port = self._allocate_src_port()
        dst_port = _PORT_BY_KIND.get(demand.kind, 443)

        if self._slb is not None:
            app_tuple, data_tuple = self._slb.establish_connection(
                src_host=demand.src_host,
                dst_host=demand.dst_host,
                src_port=src_port,
                dst_port=dst_port,
            )
        else:
            data_tuple = FiveTuple(
                src_ip=demand.src_host,
                dst_ip=demand.dst_host,
                src_port=src_port,
                dst_port=dst_port,
            )
            app_tuple = data_tuple

        try:
            path = self._router.route(data_tuple, demand.src_host, demand.dst_host)
        except NoRouteError:
            # The network has no usable path (e.g. every uplink of the ToR is
            # down).  The application sees a connection timeout.
            event = ConnectionSetupFailureEvent(
                flow_id=flow_id,
                epoch=epoch,
                src_host=demand.src_host,
                dst_host=demand.dst_host,
                five_tuple=app_tuple,
            )
            result.setup_failures.append(event)
            self._publish(event)
            return None

        if self._config.simulate_setup_failures and self._setup_fails(path):
            event = ConnectionSetupFailureEvent(
                flow_id=flow_id,
                epoch=epoch,
                src_host=demand.src_host,
                dst_host=demand.dst_host,
                five_tuple=app_tuple,
            )
            result.setup_failures.append(event)
            self._publish(event)
            transfer_state: TransferResult = TransferResult(
                num_packets=demand.num_packets,
                packets_delivered=0,
                packets_lost=demand.num_packets,
                retransmissions=0,
                drops_by_link={},
                connection_failed=True,
            )
        else:
            transfer_state = _PendingTransfer(demand.num_packets)

        record = FlowRecord(
            flow_id=flow_id,
            epoch=epoch,
            five_tuple=app_tuple,
            src_host=demand.src_host,
            dst_host=demand.dst_host,
            path=path,
            result=transfer_state,
            kind=demand.kind,
        )
        result.flows.append(record)
        return record

    def _transfer_batches(
        self, epoch: int, records: Sequence[FlowRecord], result: EpochResult
    ) -> None:
        """Simulate the TCP transfers of every pending flow in grouped batches."""
        pending = [r for r in records if isinstance(r.result, _PendingTransfer)]
        batch_size = max(1, self._config.transfer_batch_size)
        for start in range(0, len(pending), batch_size):
            batch = pending[start : start + batch_size]
            transfers = simulate_transfers_batch(
                [record.path for record in batch],
                [record.result.num_packets for record in batch],
                self._link_table,
                rng=self._rng,
                max_rounds=self._config.max_rounds,
            )
            for record, transfer in zip(batch, transfers):
                record.result = transfer
                if transfer.has_retransmission:
                    event = RetransmissionEvent(
                        flow_id=record.flow_id,
                        epoch=epoch,
                        src_host=record.src_host,
                        dst_host=record.dst_host,
                        five_tuple=record.five_tuple,
                        retransmissions=transfer.retransmissions,
                        timestamp=float(
                            self._rng.uniform(0, self._config.epoch_duration_s)
                        ),
                    )
                    result.retransmission_events.append(event)
                    self._publish(event)

    def _setup_fails(self, path: Path) -> bool:
        """True when the SYN handshake fails ``syn_retries`` times in a row."""
        for _ in range(self._config.syn_retries):
            if not self._packet_dropped(path):
                return False
        return True

    def _packet_dropped(self, path: Path) -> bool:
        """Simulate one packet traversal; True when it is dropped anywhere."""
        for link in path.links:
            p = self._link_table.drop_probability(link)
            if p > 0.0 and self._rng.random() < p:
                return True
        return False

    def _allocate_src_port(self) -> int:
        port = self._next_src_port
        self._next_src_port += 1
        if self._next_src_port > 65535:
            self._next_src_port = self._config.base_src_port
        return port

    def _publish(self, event: object) -> None:
        for callback in self._subscribers:
            callback(event)
