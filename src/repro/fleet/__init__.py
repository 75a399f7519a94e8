"""``repro.fleet``: distributed evidence ingestion over real sockets.

The paper's deployment shape, made literal: per-host monitoring agents
stream evidence to one centralized analyzer over the network, and the
analyzer answers "which link is dropping packets" while epochs are still
open.  This package adds the missing wire:

* :mod:`repro.fleet.protocol` — length-prefixed framing, the versioned
  HELLO/WELCOME handshake, heartbeats, and the
  :class:`~repro.fleet.protocol.FleetProtocolError` taxonomy (a peer death
  is always a loud error, never a hang).
* :mod:`repro.fleet.analyzer` — the asyncio analyzer front-end: every
  decoded chunk admitted on arrival into one streaming service (columns
  straight into a :class:`~repro.api.service.Zero07Service`), tick
  barriers, per-connection credit windows, and a newline-JSON query socket
  for mid-epoch reports.
* :mod:`repro.fleet.agent` — the synchronous agent client: bounded send
  window, at-least-once redelivery from acked watermarks, reconnect with
  jittered exponential backoff; a run interrupted by reconnects finalizes
  bit-identically to an uninterrupted one.
* :mod:`repro.fleet.runner` — ``repro fleet run``: N agents + analyzer on
  localhost, scripted mid-run kills, convergence, and a self-describing
  run directory (``meta.json`` / ``summary.json`` / per-agent JSONL).

The exported names are snapshot-tested (``tests/test_api_surface.py``).
"""

from repro.fleet.agent import AgentStats, FleetAgentClient, KILL_EXIT_CODE
from repro.fleet.analyzer import (
    AnalyzerStats,
    AnalyzerThread,
    FleetAnalyzer,
    ServiceIngestCore,
)
from repro.fleet.protocol import (
    FLEET_MAGIC,
    FLEET_PROTOCOL_VERSION,
    Endpoint,
    FleetProtocolError,
    FrameReader,
    FrameTooLargeError,
    HandshakeError,
    PeerError,
    TruncatedFrameError,
    UnknownFrameError,
    VersionMismatchError,
    parse_endpoint,
)
from repro.fleet.runner import (
    FleetQueryClient,
    FleetRunConfig,
    run_fleet,
    validate_run_dir,
)

__all__ = [
    # protocol
    "FLEET_MAGIC",
    "FLEET_PROTOCOL_VERSION",
    "Endpoint",
    "parse_endpoint",
    "FrameReader",
    "FleetProtocolError",
    "TruncatedFrameError",
    "FrameTooLargeError",
    "UnknownFrameError",
    "HandshakeError",
    "VersionMismatchError",
    "PeerError",
    # analyzer
    "FleetAnalyzer",
    "AnalyzerThread",
    "AnalyzerStats",
    "ServiceIngestCore",
    # agent
    "FleetAgentClient",
    "AgentStats",
    "KILL_EXIT_CODE",
    # runner
    "FleetRunConfig",
    "run_fleet",
    "validate_run_dir",
    "FleetQueryClient",
]
