"""Property-based test: a run of any shape is admitted like one-event runs.

``Zero07Service.ingest`` of a path or count update joins its epoch's pending
run, admitted later; ``ingest_batch`` admits each of its runs at once.  The
oracle is the same stream with a ``stats`` read after every ``ingest()``:
the read admits a one-event run.  Hypothesis draws interleavings of
per-event events — new paths, duplicates, swapped neighbours, seq-less
updates, updates ahead of their path, re-traces (some right after their
update), late events, evidence subclasses, a second open epoch — with
``ingest_batch`` chunks of 1-20 events drawn from the same shapes, some
repeating a seq inside the chunk, and reports, ``stats`` reads, checkpoint
→ restore cycles and ticks.  Reports, ``stats.as_dict()`` and checkpoint
bytes must be equal at every read, on both engines.
"""

from __future__ import annotations

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import repro.api.service as service_module  # noqa: E402
from repro.api import (  # noqa: E402
    Checkpoint,
    EpochTick,
    PathEvidence,
    RetransmissionEvidence,
    Zero07Service,
)
from repro.discovery.agent import DiscoveredPath  # noqa: E402
from repro.routing.fivetuple import FiveTuple  # noqa: E402
from repro.testing import epoch_records, report_signature  # noqa: E402
from repro.topology.elements import DirectedLink  # noqa: E402

LINKS = [DirectedLink(f"s{i}", f"s{i + 1}") for i in range(10)]


class TracedPathEvidence(PathEvidence):
    """An evidence subclass: captured like any path."""


class TracedRetransmissionEvidence(RetransmissionEvidence):
    """A count-update subclass."""


def make_path(rng, flow_id: int, epoch: int) -> DiscoveredPath:
    hops = rng.sample(LINKS, rng.choice((1, 2, 3, 3, 4, 4, 5, 8)))
    return DiscoveredPath(
        flow_id=flow_id,
        five_tuple=FiveTuple("10.0.0.1", f"10.0.1.{flow_id % 250}", 1024 + flow_id, 443),
        src_host=f"h{flow_id % 3}",
        dst_host=f"h{3 + flow_id % 2}",
        links=hops,
        complete=flow_id % 4 != 0,
        retransmissions=rng.randint(1, 3),
        epoch=epoch,
    )


class Stream:
    """Draws one delivery stream: events, batches and reads, as operations."""

    def __init__(self, rng, noise: float) -> None:
        self.rng = rng
        #: scales every perturbation: calm streams keep whole runs admissible.
        self.noise = noise
        self.epoch = 0  # the oldest open epoch; ticks close it
        self.seq = {}
        self.traced = {}
        self.delivered = []
        self.next_flow = 0

    def _seq(self, epoch):
        self.seq[epoch] = self.seq.get(epoch, -1) + 1
        return self.seq[epoch]

    def event(self):
        """One fresh event (sometimes two, swapped), or a redelivery."""
        rng, noise = self.rng, self.noise
        draw = rng.random()
        if draw < 0.06 * noise and self.epoch:  # late: its epoch is closed
            epoch = rng.randrange(self.epoch)
        elif draw < 0.18 * noise:  # the next epoch opens before this one closes
            epoch = self.epoch + 1
        else:
            epoch = self.epoch
        traced = self.traced.setdefault(epoch, [])
        draw = rng.random()
        if draw < 0.08 * noise and self.delivered:
            return [rng.choice(self.delivered)]  # a duplicate
        if draw < 0.14 * noise:
            first, second = self.event(), self.event()
            return second + first  # swapped neighbours
        if draw < 0.40 and traced:
            flow = rng.choice(traced)
            kind = TracedRetransmissionEvidence if rng.random() < 0.05 else RetransmissionEvidence
            seq = None if rng.random() < 0.15 * noise else self._seq(epoch)  # seq-less
            event = kind(epoch=epoch, flow_id=flow, retransmissions=rng.randint(1, 3), seq=seq)
        elif draw < 0.40 + 0.06 * noise:  # an update ahead of its flow's path
            flow = self.next_flow
            self.next_flow += 1
            traced.append(flow)
            event = RetransmissionEvidence(
                epoch=epoch, flow_id=flow, retransmissions=2, seq=self._seq(epoch)
            )
            self.delivered.append(event)
            path = PathEvidence(epoch, self._seq(epoch), make_path(rng, flow, epoch))
            return [event] + self.event() + [path]
        elif draw < 0.40 + 0.12 * noise and traced:  # an update, then a re-trace
            flow = rng.choice(traced)
            update = RetransmissionEvidence(
                epoch=epoch, flow_id=flow, retransmissions=1, seq=self._seq(epoch)
            )
            path = PathEvidence(epoch, self._seq(epoch), make_path(rng, flow, epoch))
            self.delivered += [update, path]
            return [update, path]
        else:
            if traced and rng.random() < 0.15 * noise:
                flow = rng.choice(traced)  # a re-trace
            else:
                flow = self.next_flow
                self.next_flow += 1
                traced.append(flow)
            kind = TracedPathEvidence if rng.random() < 0.04 else PathEvidence
            event = kind(epoch, self._seq(epoch), make_path(rng, flow, epoch))
        self.delivered.append(event)
        return [event]

    def operations(self, length):
        ops = []
        while len(ops) < length:
            draw = self.rng.random()
            if draw < 0.68:
                ops += [("event", event) for event in self.event()]
            elif draw < 0.70:  # a stretch redelivered event by event
                seen = [e for e in self.delivered[-12:] if e.seq is not None]
                ops.append(("redeliver", (self.epoch, seen)))
            elif draw < 0.78:
                chunk = []
                while len(chunk) < self.rng.choice((1, 2, 3, 5, 7, 8, 12, 20)):
                    chunk += self.event()
                if self.rng.random() < 0.3 * self.noise:  # a seq repeated inside
                    repeat = self.rng.choice(chunk)
                    chunk.insert(self.rng.randrange(len(chunk) + 1), repeat)
                ops.append(("batch", chunk))
            elif draw < 0.86:
                ops.append(("report", self.epoch + self.rng.randint(-1, 1)))
            elif draw < 0.91:
                ops.append(("stats", None))
            elif draw < 0.94:
                ops.append(("evidence", self.epoch))
            elif draw < 0.97:
                ops.append(("restart", self.rng.choice(("memory", "bytes"))))
            else:
                ops.append(("tick", self.epoch))
                self.epoch += 1
        return ops


def through_codec(checkpoint: Checkpoint, codec: str) -> Checkpoint:
    if codec == "bytes":
        return Checkpoint.from_bytes(checkpoint.to_bytes())
    return checkpoint


def report_or_error(service, epoch):
    try:
        return report_signature(service.report(max(epoch, 0)))
    except KeyError as exc:
        return repr(exc)


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    engine=st.sampled_from(["arrays", "dicts"]),
    run_limit=st.sampled_from([8, 13, 512]),
    length=st.integers(20, 260),
    noise=st.sampled_from([0.05, 0.3, 1.0]),
)
def test_pending_runs_equal_per_event_admission(seed, engine, run_limit, length, noise):
    ops = Stream(random.Random(seed), noise).operations(length)
    saved_limit = service_module._PENDING_RUN_EVENTS
    service_module._PENDING_RUN_EVENTS = run_limit
    try:
        pending = Zero07Service(engine=engine)
        oracle = Zero07Service(engine=engine)
        for op, arg in ops:
            if op == "event":
                pending.ingest(arg)
                oracle.ingest(arg)
                oracle.stats  # admits a one-event run
            elif op == "batch":
                pending.ingest_batch(arg)
                for event in arg:
                    oracle.ingest(event)
                    oracle.stats
            elif op == "report":
                assert report_or_error(pending, arg) == report_or_error(oracle, arg)
                assert report_or_error(pending, arg) == report_or_error(oracle, arg)
            elif op == "redeliver":  # seen events change nothing: the view holds
                epoch, events = arg
                views = pending.report(epoch), oracle.report(epoch)
                for event in events:
                    pending.ingest(event)
                    oracle.ingest(event)
                    oracle.stats
                if epoch in oracle.open_epochs:  # else there is no view to hold
                    assert pending.report(epoch) is views[0]
                    assert oracle.report(epoch) is views[1]
            elif op == "stats":
                assert pending.stats.as_dict() == oracle.stats.as_dict()
            elif op == "evidence":
                assert epoch_records(pending, arg) == epoch_records(oracle, arg)
            elif op == "restart":
                blob = pending.checkpoint().to_bytes()
                assert blob == oracle.checkpoint().to_bytes()
                pending = Zero07Service.restore(through_codec(pending.checkpoint(), arg))
                oracle = Zero07Service.restore(through_codec(oracle.checkpoint(), arg))
            else:
                pending.ingest(EpochTick(arg))
                oracle.ingest(EpochTick(arg))
        assert pending.checkpoint().to_bytes() == oracle.checkpoint().to_bytes()
        assert pending.stats.as_dict() == oracle.stats.as_dict()
        for epoch in pending.open_epochs:
            assert report_signature(pending.advance_epoch(epoch)) == report_signature(
                oracle.advance_epoch(epoch)
            )
        assert pending.stats.as_dict() == oracle.stats.as_dict()
    finally:
        service_module._PENDING_RUN_EVENTS = saved_limit
