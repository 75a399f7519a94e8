"""Evidence sources: bridges that feed a :class:`~repro.api.service.Zero07Service`.

* :class:`MonitoringEvidenceStream` — binds a live
  :class:`~repro.monitoring.agent.TcpMonitoringAgent` to a service: every
  newly discovered path becomes a :class:`~repro.api.events.PathEvidence`
  (with a per-epoch sequence number assigned in discovery order), every
  repeat retransmission of an already-traced flow a
  :class:`~repro.api.events.RetransmissionEvidence`.  This is what makes the
  rewired :class:`~repro.core.pipeline.Zero07System` *streaming*: evidence
  reaches the service while the epoch is still running, so mid-epoch
  ``report()`` queries see everything discovered so far.
* :class:`ReplayEvidenceSource` — a list-backed
  :class:`~repro.api.service.EvidenceSource` (logs, tests, backfills).
* :class:`EvidenceRecorder` — a transparent ingest tap that snapshots every
  event flowing into a service, for capture/replay and shard-equivalence
  testing.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence

from repro.api.events import (
    Evidence,
    PathEvidence,
    RetransmissionEvidence,
    copy_evidence,
)
from repro.api.service import Zero07Service
from repro.discovery.agent import DiscoveredPath
from repro.monitoring.agent import TcpMonitoringAgent


class ReplayEvidenceSource:
    """An :class:`~repro.api.service.EvidenceSource` over a recorded list."""

    def __init__(self, events: Iterable[Evidence]) -> None:
        self._events: List[Evidence] = list(events)

    def events(self) -> Iterator[Evidence]:
        """Yield the recorded events in order."""
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)


class EvidenceRecorder:
    """Taps a service's ``ingest``, ``ingest_batch`` and ``ingest_run`` to
    capture a snapshot of every event.

    The recorder deep-copies path payloads at capture time (sources mutate
    them in place on later retransmissions), so :meth:`replay` reproduces the
    original stream faithfully on any other service — the capture/replay tool
    behind the shard- and checkpoint-equivalence tests.  Batches and runs
    reach the service whole, so a tapped service folds them as an untapped
    one would.
    """

    _ENTRY_POINTS = ("ingest", "ingest_batch", "ingest_run")

    def __init__(self, service: Zero07Service) -> None:
        self._service = service
        #: the entry points shadowed on the instance before this tap (another
        #: recorder's): detach re-installs them rather than deleting.
        self._shadowed = {
            name: service.__dict__.get(name) for name in self._ENTRY_POINTS
        }
        self._inner = {name: getattr(service, name) for name in self._ENTRY_POINTS}
        #: > 0 while forwarding: an entry point the service calls from
        #: another (a batch's tick through ``ingest``) is already recorded.
        self._forwarding = 0
        self.events: List[Evidence] = []
        for name in self._ENTRY_POINTS:
            setattr(service, name, getattr(self, name))

    def _forward(self, name: str, events: Sequence[Evidence], *args) -> None:
        if not self._forwarding:
            self.events.extend(map(copy_evidence, events))
        self._forwarding += 1
        try:
            self._inner[name](*args)
        finally:
            self._forwarding -= 1

    def ingest(self, event: Evidence) -> None:
        """Record a snapshot of ``event``, then forward it to the service."""
        self._forward("ingest", (event,), event)

    def ingest_batch(self, events: Iterable[Evidence], owned: bool = False) -> None:
        """Record snapshots of ``events``, then forward the batch."""
        events = events if isinstance(events, list) else list(events)
        self._forward("ingest_batch", events, events, owned)

    def ingest_run(
        self, epoch: int, run: List[Evidence], owned: bool = False, seqs=None
    ) -> None:
        """Record snapshots of ``run``, then forward the run."""
        self._forward("ingest_run", run, epoch, run, owned, seqs)

    def detach(self) -> None:
        """Restore the entry points that were in place before this recorder.

        If this recorder wrapped another instance-level tap (stacked
        recorders), that tap is re-installed; otherwise the instance
        attributes are deleted so lookup falls back to the class methods.
        Detaching twice is harmless.
        """
        for name, shadowed in self._shadowed.items():
            if shadowed is not None:
                setattr(self._service, name, shadowed)
            else:
                self._service.__dict__.pop(name, None)

    def source(self) -> ReplayEvidenceSource:
        """The captured stream as a replayable source."""
        return ReplayEvidenceSource(self.events)

    def replay(self, service) -> None:
        """Feed the captured stream into another service (or sharded fleet)."""
        for event in self.events:
            service.ingest(copy_evidence(event))


class MonitoringEvidenceStream:
    """Streams a monitoring agent's discoveries into a service as they happen.

    Attaches to the agent's ``on_new_path`` / ``on_repeat_retransmissions``
    hooks; sequence numbers are assigned per epoch in discovery order —
    exactly the order the legacy batch loop consumed
    ``paths_for_epoch(epoch)`` in, which is what keeps streamed reports
    bit-identical to batch analysis.
    """

    def __init__(self, monitoring: TcpMonitoringAgent, service: Zero07Service) -> None:
        self._service = service
        self._seq_by_epoch: Dict[int, int] = {}
        monitoring.on_new_path = self._on_new_path
        monitoring.on_repeat_retransmissions = self._on_repeat_retransmissions

    def _on_new_path(self, epoch: int, path: DiscoveredPath) -> None:
        seq = self._seq_by_epoch.get(epoch, 0)
        self._seq_by_epoch[epoch] = seq + 1
        self._service.ingest(PathEvidence(epoch=epoch, seq=seq, path=path))

    def _on_repeat_retransmissions(
        self, epoch: int, flow_id: int, retransmissions: int
    ) -> None:
        # count updates draw from the same per-epoch sequence space as the
        # paths, so redelivered updates are deduplicated too.
        seq = self._seq_by_epoch.get(epoch, 0)
        self._seq_by_epoch[epoch] = seq + 1
        self._service.ingest(
            RetransmissionEvidence(
                epoch=epoch, flow_id=flow_id, retransmissions=retransmissions, seq=seq
            )
        )

    def epoch_done(self, epoch: int) -> None:
        """Release the epoch's sequence counter (after its tick)."""
        self._seq_by_epoch.pop(epoch, None)
