"""In-memory span tracer for the ruler's traced passes.

Spans wrap only the ruler's *own* calls into the program's public functions
(``service.ingest_batch``, ``executor.drain_wire``, ``Checkpoint.to_bytes`` …);
nothing inside ``src/repro`` is instrumented — spans inside the program are a
later (observability) change.  Spans are kept in memory and written out as
JSON lines when the workload ends.  A span's *self time* is its duration minus
the part of that interval its direct children cover, so a parent that merely
groups calls (``pass``, ``replay``) carries only the harness overhead between
them.

A disabled tracer hands out one shared no-op context manager, so the untraced
passes that produce the end-to-end numbers pay a single attribute lookup per
call site.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterable, List, Optional, Tuple

#: spans that only group other spans; they are not a layer of the program.
GROUPING_SPANS = frozenset(("pass", "replay"))

#: the ruler's own work inside a pass (oracle keys, checkpoint cycles with
#: their restored-vs-live comparison): outside the pass's clock, so outside
#: its coverage too.  Layer spans nested in them still show in the trace.
ASIDE_SPANS = frozenset(("ruler.verify", "ruler.checkpoint_cycle"))


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        tracer = self.tracer
        tracer.rows[self.index][2] = time.perf_counter()
        tracer._stack.pop()
        return False


class Tracer:
    """Collects ``[name, start, end, parent, pass, epoch]`` rows."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.rows: List[list] = []
        self._stack: List[int] = []
        self.pass_id = -1
        self.epoch: Optional[int] = None

    def span(self, name: str):
        """Context manager timing one call into a layer (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        parent = self._stack[-1] if self._stack else -1
        index = len(self.rows)
        self.rows.append(
            [name, time.perf_counter(), None, parent, self.pass_id, self.epoch]
        )
        self._stack.append(index)
        return _Span(self, index)

    # ------------------------------------------------------------------
    def self_times(self, pass_id: Optional[int] = None) -> Dict[str, float]:
        """Summed self time per span name (optionally for one pass only)."""
        child_cover = [0.0] * len(self.rows)
        for name, start, end, parent, _pass, _epoch in self.rows:
            if parent >= 0 and end is not None:
                child_cover[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _parent, row_pass, _epoch) in enumerate(
            self.rows
        ):
            if end is None or (pass_id is not None and row_pass != pass_id):
                continue
            totals[name] = totals.get(name, 0.0) + (
                (end - start) - child_cover[index]
            )
        return totals

    def counts(self, pass_id: Optional[int] = None) -> Dict[str, int]:
        """Number of spans per name (optionally for one pass only)."""
        totals: Dict[str, int] = {}
        for name, _start, _end, _parent, row_pass, _epoch in self.rows:
            if pass_id is None or row_pass == pass_id:
                totals[name] = totals.get(name, 0) + 1
        return totals

    def coverage(self, pass_id: int) -> Tuple[float, float]:
        """``(layer self time, wall)`` of one traced pass.

        The wall is the pass's root ``pass`` span minus the ruler's asides;
        the layer time is the self time of every span directly inside the
        pass that is neither grouping nor aside.  Their ratio is
        ``trace.coverage_share`` — what is left over is the ruler's own
        bookkeeping between calls.
        """
        wall = 0.0
        layer = 0.0
        roots = set()
        for index, (name, start, end, _parent, row_pass, _epoch) in enumerate(
            self.rows
        ):
            if name == "pass" and row_pass == pass_id and end is not None:
                wall += end - start
                roots.add(index)
        for name, start, end, parent, _pass, _epoch in self.rows:
            if parent in roots and end is not None:
                if name in ASIDE_SPANS:
                    wall -= end - start
                elif name not in GROUPING_SPANS:
                    layer += end - start
        return layer, wall

    def write_jsonl(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, row_pass, epoch) in enumerate(
                self.rows
            ):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "pass": row_pass,
                            "epoch": epoch,
                        }
                    )
                    + "\n"
                )


def read_jsonl(path) -> Iterable[dict]:
    """Parse a trace file back into span dicts (used by the tests)."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                yield json.loads(line)
