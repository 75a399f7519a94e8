"""API.md's ``python`` blocks run as written.

Each block is executed in a fresh namespace holding small stand-ins for the
names the prose leaves to the reader (a sink, a discovered path, an epoch of
evidence, a service), so a renamed entry point, a changed signature or a
missing import in the document fails here instead of going stale.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.api import CallbackSink, PathEvidence, Zero07Service
from repro.core.aggregate import MultiEpochAggregator
from repro.loadgen import EvidenceLoadGenerator

API_DOC = Path(__file__).resolve().parents[1] / "API.md"


def _python_blocks():
    """(slug of the nearest heading, code) for every fenced ``python`` block."""
    text = API_DOC.read_text()
    blocks = []
    for match in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S):
        heading = re.findall(r"^#+ (.+)$", text[: match.start()], re.M)[-1]
        slug = re.sub(r"[^a-z0-9]+", "-", heading.lower()).strip("-")
        blocks.append((slug, match.group(1)))
    return blocks


BLOCKS = _python_blocks()
assert BLOCKS, f"no python blocks found in {API_DOC}"


def _stand_ins():
    events = EvidenceLoadGenerator("tiny", seed=3, events_per_epoch=400).epoch_events(
        0, tick=False
    )
    assert isinstance(events[0], PathEvidence) and events[0].seq == 0
    return {
        "my_sink": CallbackSink(lambda report: None),
        "aggregator": MultiEpochAggregator(),
        "discovered": events[0].path,
        "more_events": events[1:],
        "events": events,
        "epoch": 0,
        "service": Zero07Service(),
    }


@pytest.mark.parametrize("heading, code", BLOCKS, ids=[h for h, _ in BLOCKS])
def test_api_doc_block_runs(heading, code):
    namespace = _stand_ins()
    try:
        exec(compile(code, f"API.md ({heading})", "exec"), namespace)
    finally:
        if "fleet" in namespace:  # the process backend's workers
            namespace["fleet"].close()
        if "thread" in namespace:  # the fleet analyzer's event loop
            namespace["thread"].stop()
