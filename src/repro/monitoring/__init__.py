"""TCP monitoring agent (the ETW-fed component of 007)."""

from repro.monitoring.agent import TcpMonitoringAgent

__all__ = ["TcpMonitoringAgent"]
