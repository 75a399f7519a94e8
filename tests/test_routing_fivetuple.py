"""Unit tests for the five-tuple abstraction."""

from __future__ import annotations

import pytest

from repro.routing.fivetuple import FiveTuple


class TestFiveTuple:
    def test_defaults_to_tcp(self):
        flow = FiveTuple("a", "b", 1000, 443)
        assert flow.protocol == 6

    def test_reversed_swaps_endpoints(self):
        flow = FiveTuple("a", "b", 1000, 443)
        rev = flow.reversed()
        assert rev.src_ip == "b" and rev.dst_ip == "a"
        assert rev.src_port == 443 and rev.dst_port == 1000
        assert rev.reversed() == flow

    def test_with_destination_rewrites_dip(self):
        flow = FiveTuple("a", "vip:storage", 1000, 443)
        data = flow.with_destination("dip-host")
        assert data.dst_ip == "dip-host"
        assert data.dst_port == 443
        assert data.src_ip == flow.src_ip

    def test_with_destination_can_rewrite_port(self):
        flow = FiveTuple("a", "vip", 1000, 443)
        assert flow.with_destination("d", 8443).dst_port == 8443

    def test_invalid_port_raises(self):
        with pytest.raises(ValueError):
            FiveTuple("a", "b", -1, 443)
        with pytest.raises(ValueError):
            FiveTuple("a", "b", 1000, 70000)

    def test_invalid_protocol_raises(self):
        with pytest.raises(ValueError):
            FiveTuple("a", "b", 1, 2, protocol=300)

    def test_canonical_key_is_direction_sensitive(self):
        flow = FiveTuple("a", "b", 1000, 443)
        assert flow.canonical_key() != flow.reversed().canonical_key()

    def test_hashable(self):
        flow = FiveTuple("a", "b", 1000, 443)
        assert flow in {flow}

    def test_ordering_is_deterministic(self):
        flows = [FiveTuple("b", "a", 2, 1), FiveTuple("a", "b", 1, 2)]
        assert sorted(flows)[0].src_ip == "a"
