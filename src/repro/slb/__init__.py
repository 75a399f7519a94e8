"""Software load balancer substrate (Ananta-style VIP -> DIP mapping)."""

from repro.slb.loadbalancer import (
    SlbQueryError,
    SoftwareLoadBalancer,
    VirtualSwitch,
)

__all__ = ["SoftwareLoadBalancer", "VirtualSwitch", "SlbQueryError"]
