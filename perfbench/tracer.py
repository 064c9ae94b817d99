"""In-memory spans recorded by the benchmark around calls into each layer.

A span has a name ``"<layer>.<what>"``, a start and end (perf_counter
seconds), the index of its parent span and the id of the op it belongs
to.  Spans stay in memory and are written out once, at the end of the
run.  A span whose duration was measured by the program rather than by
us (``RunResult.elapsed``) or derived as a difference of two timed calls
is recorded with ``synthetic=True``; its start is when it was recorded.

A layer's self time is its spans' durations minus the durations of
their direct children.  Children measured by replaying the same
public calls on the same inputs after the parent call ran are attached
to that parent, so the parent's self time is "the call minus its layers"
(e.g. ``engine.dispatch_s``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self.op: Optional[str] = None

    def _open(self, name: str, start: float, parent: Optional[int], attrs: dict) -> int:
        self.spans.append(
            {
                "name": name,
                "start": start,
                "end": None,
                "parent": self._stack[-1] if parent is None and self._stack else parent,
                "op": self.op,
                **attrs,
            }
        )
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, *, parent: Optional[int] = None, **attrs) -> Iterator[int]:
        index = self._open(name, time.perf_counter(), parent, attrs)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index]["end"] = time.perf_counter()

    def record(self, name: str, dur: float, *, parent: Optional[int] = None, **attrs) -> int:
        """A synthetic span of known duration (see the module docstring)."""
        start = time.perf_counter()
        index = self._open(name, start, parent, dict(attrs, synthetic=True))
        self.spans[index]["end"] = start + dur
        return index

    def dur(self, index: int) -> float:
        span = self.spans[index]
        return span["end"] - span["start"]

    def totals(self) -> Dict[str, float]:
        """Summed duration per span name."""
        out: Dict[str, float] = {}
        for i, span in enumerate(self.spans):
            out[span["name"]] = out.get(span["name"], 0.0) + self.dur(i)
        return out

    def self_times(self) -> Dict[str, float]:
        """Summed self time per layer (the span name's prefix)."""
        child_sum = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span["parent"] is not None:
                child_sum[span["parent"]] += self.dur(i)
        out: Dict[str, float] = {}
        for i, span in enumerate(self.spans):
            layer = span["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self.dur(i) - child_sum[i]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
