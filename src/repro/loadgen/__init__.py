"""``repro.loadgen``: fabric-scale synthetic evidence workloads.

The 007 analysis service must keep up with production traffic — millions of
flows per epoch across a Clos fabric — but exercising it through the full
TCP/netsim simulation caps realistic scale at a few thousand flows.  This
package generates :class:`~repro.api.events.PathEvidence` /
:class:`~repro.api.events.RetransmissionEvidence` / EpochTick streams
*directly* from a :class:`~repro.topology.clos.ClosParameters` fabric and a
traffic/failure profile, without running the simulator:

* :class:`WorkloadProfile` — who talks to whom (uniform, Zipf-skewed host
  popularity, hot-ToR sinks), how concentrated the evidence is on bad links,
  and how often already-traced flows retransmit again.
* :class:`EvidenceLoadGenerator` — emits realistic, ECMP-valid evidence paths
  over the fabric, deterministic per seed, at millions of events; accepts a
  :class:`~repro.netsim.script.ScenarioScript`, whose failures (the ones
  the simulator compiles) become time-varying bad links.
* :data:`FABRIC_PRESETS` / :func:`fabric_parameters` — named fabric sizings
  the ruler's workloads are generated over (``ruler/harness.py``).

The exported names are snapshot-tested (``tests/test_api_surface.py``).
"""

from repro.loadgen.generator import EvidenceLoadGenerator
from repro.loadgen.profiles import (
    FABRIC_PRESETS,
    WorkloadProfile,
    fabric_parameters,
)

__all__ = [
    "EvidenceLoadGenerator",
    "WorkloadProfile",
    "FABRIC_PRESETS",
    "fabric_parameters",
]
