"""``repro.api``: the event-driven streaming service boundary of 007.

This package is the stable public API the always-on deployment is built
around — the same separation the paper draws between per-host agents (which
*emit* evidence) and the centralized analysis agent (which *serves* answers):

* :mod:`repro.api.events` — the typed evidence vocabulary
  (:class:`PathEvidence`, :class:`RetransmissionEvidence`,
  :class:`EpochTick`) with lossless JSON codecs.
* :mod:`repro.api.service` — :class:`Zero07Service` (``ingest`` /
  ``ingest_batch`` / on-demand ``report`` / ``checkpoint``), the
  :class:`EvidenceSource` and :class:`ReportSink` protocols, and stock sinks.
* :mod:`repro.api.sharded` — :class:`ShardedService`, flow-partitioned
  scale-out whose fleet-wide view is one coordinator service.
* :mod:`repro.api.checkpoint` — :class:`Checkpoint` save/restore of analysis
  state (stop a service, resume it bit-identically).
* :mod:`repro.api.sources` — monitoring bridge, replay sources, recorder.

The exported names and signatures below are snapshot-tested
(``tests/test_api_surface.py``); changing them is an intentional,
reviewed act.
"""

from repro.api.checkpoint import CHECKPOINT_VERSION, Checkpoint
from repro.api.events import (
    EpochTick,
    Evidence,
    PathEvidence,
    RetransmissionEvidence,
    evidence_from_dict,
    evidence_to_dict,
)
from repro.api.service import (
    CallbackSink,
    DetectionLogSink,
    EvidenceSource,
    ReportSink,
    ReportUnavailableError,
    ServiceStats,
    Zero07Service,
)
from repro.api.executor import (
    InlineExecutor,
    ProcessExecutor,
    ShardExecutor,
    ShardExecutorError,
)
from repro.api.sharded import ShardedService, shard_of_host
from repro.api.wire import (
    EvidenceColumnStore,
    LinkRemap,
    WireDecoder,
    WireEncoder,
    WireProtocolError,
    WireRun,
)
from repro.api.sources import (
    EvidenceRecorder,
    MonitoringEvidenceStream,
    ReplayEvidenceSource,
    partition_evidence,
    path_evidence_stream,
)

__all__ = [
    # events
    "Evidence",
    "PathEvidence",
    "RetransmissionEvidence",
    "EpochTick",
    "evidence_to_dict",
    "evidence_from_dict",
    # service
    "Zero07Service",
    "ServiceStats",
    "EvidenceSource",
    "ReportSink",
    "ReportUnavailableError",
    "CallbackSink",
    "DetectionLogSink",
    # scale-out
    "ShardedService",
    "shard_of_host",
    "ShardExecutor",
    "InlineExecutor",
    "ProcessExecutor",
    "ShardExecutorError",
    # evidence transport
    "WireEncoder",
    "WireDecoder",
    "WireRun",
    "LinkRemap",
    "EvidenceColumnStore",
    "WireProtocolError",
    # checkpointing
    "Checkpoint",
    "CHECKPOINT_VERSION",
    # sources
    "MonitoringEvidenceStream",
    "ReplayEvidenceSource",
    "EvidenceRecorder",
    "path_evidence_stream",
    "partition_evidence",
]
