"""repro: a reproduction of "007: Democratically Finding the Cause of Packet Drops".

The package is organised as a set of substrates (topology, routing, flow-level
network simulation, load balancing, path discovery, TCP monitoring), the 007
analysis core (voting, ranking, Algorithm 1), optimization baselines, the
theoretical bounds from the paper, and an experiment harness that regenerates
every table and figure of the evaluation section.

Quickstart: ``python examples/quickstart.py`` builds a small Clos fabric,
injects one lossy link, runs one epoch of the full pipeline and prints the
ranking and the detected links.  The test suite runs every example script.
"""

from repro.core.pipeline import Zero07System, SystemConfig
from repro.core.analysis import AnalysisAgent, EpochReport
from repro.core.votes import VoteTally
from repro.core.blame import find_problematic_links, BlameConfig
from repro.topology.clos import ClosTopology, ClosParameters
from repro.routing.ecmp import EcmpRouter
from repro.netsim.simulator import EpochSimulator, SimulationConfig
from repro.netsim.links import LinkStateTable
from repro.netsim.traffic import UniformTraffic, SkewedTraffic, HotTorTraffic

__version__ = "1.0.0"

__all__ = [
    "Zero07System",
    "SystemConfig",
    "AnalysisAgent",
    "EpochReport",
    "VoteTally",
    "find_problematic_links",
    "BlameConfig",
    "ClosTopology",
    "ClosParameters",
    "EcmpRouter",
    "EpochSimulator",
    "SimulationConfig",
    "LinkStateTable",
    "UniformTraffic",
    "SkewedTraffic",
    "HotTorTraffic",
    "__version__",
]
