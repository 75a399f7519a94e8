"""Unit tests for the software load balancer and vSwitch models."""

from __future__ import annotations

import pytest

from repro.routing.fivetuple import FiveTuple
from repro.slb.loadbalancer import SlbQueryError, SoftwareLoadBalancer


class TestVipManagement:
    def test_vip_for_host_fronts_the_host(self):
        slb = SoftwareLoadBalancer()
        vip = slb.vip_for_host("host-a")
        app, _ = slb.establish_connection("client", "host-a", 1000, 443)
        assert app.dst_ip == vip
        assert slb.query_dip(app) == "host-a"


class TestConnectionEstablishment:
    def test_app_and_data_tuples(self):
        slb = SoftwareLoadBalancer()
        app, data = slb.establish_connection("client", "server", 1000, 443)
        assert app.dst_ip == "vip:server"
        assert data.dst_ip == "server"
        assert app.src_ip == data.src_ip == "client"
        assert app.src_port == data.src_port == 1000

    def test_query_dip_resolves_mapping(self):
        slb = SoftwareLoadBalancer()
        app, data = slb.establish_connection("client", "server", 1000, 443)
        assert slb.query_dip(app) == "server"

    def test_query_unknown_flow_raises(self):
        slb = SoftwareLoadBalancer()
        unknown = FiveTuple("client", "vip:server", 2000, 443)
        with pytest.raises(SlbQueryError):
            slb.query_dip(unknown)

    def test_query_failure_rate_one_always_fails(self):
        slb = SoftwareLoadBalancer(query_failure_rate=1.0, rng=0)
        app, _ = slb.establish_connection("client", "server", 1000, 443)
        with pytest.raises(SlbQueryError):
            slb.query_dip(app)

    def test_invalid_failure_rate_raises(self):
        with pytest.raises(ValueError):
            SoftwareLoadBalancer(query_failure_rate=2.0)

    def test_vswitch_registration(self):
        slb = SoftwareLoadBalancer()
        app, _ = slb.establish_connection("client", "server", 1000, 443)
        vswitch = slb.vswitch("client")
        assert vswitch.lookup(app.canonical_key()) == "server"
