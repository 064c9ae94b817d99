"""What every workload reports: ops attempted, failures, metrics."""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import stats

_REF_LOOP = 200_000
#: Set-up times are reported in seconds of a nominal host on which
#: :func:`reference_s` takes this long (see :meth:`Outcome.setup`).
NOMINAL_REF_S = 0.015


@dataclass
class Outcome:
    """Filled by a workload.  ``metrics`` maps a name to
    ``(value, unit, samples)``; ``layers`` holds the per-layer values of
    a traced run (unit-less here, units come from BENCHMARK.json)."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, tuple] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    tracer: object = None  # the traced run's Tracer, written out at the end
    latencies: List[float] = field(default_factory=list)  # per-op seconds

    def op(self, reasons: Sequence[Optional[str]]) -> None:
        """Count one op; it failed if any check gave a reason."""
        self.attempted += 1
        bad = [r for r in reasons if r]
        if bad:
            self.failures.append("; ".join(bad))

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def latency(self, prefix: str, values: Sequence[float]) -> None:
        """``<prefix>_p50_s`` and ``<prefix>_tail_s`` of ``values``."""
        value, pct = stats.tail(values)
        self.put(f"{prefix}_p50_s", stats.median(values), "s", len(values))
        self.put(f"{prefix}_tail_s", value, "s", len(values))
        self.notes.append(f"{prefix}_tail_s is p{pct:.0f} of {len(values)} samples")

    def setup(self, walls: Sequence[float], refs: Sequence[float]) -> None:
        """``setup_s``: the median set-up in reference units times
        :data:`NOMINAL_REF_S`, i.e. in seconds of a host of nominal
        speed (the unit is fixed to seconds); ``setup_wall_s``: the
        median as measured."""
        norm = [w / r for w, r in zip(walls, refs)]
        self.put("setup_s", stats.median(norm) * NOMINAL_REF_S, "s", len(walls))
        self.put("setup_wall_s", stats.median(walls), "s", len(walls))

    def ops(self, walls: Sequence[float], refs: Sequence[float], trials_per_op: int) -> None:
        """The op metrics: wall-clock seconds, and the same in reference
        units (each op's seconds over the reference seconds measured
        around it, see :func:`reference_s`)."""
        n = len(walls)
        norm = [w / r for w, r in zip(walls, refs)]
        self.latencies = list(walls)
        self.put("op_p50_ref", stats.median(norm), "ref", n)
        self.put("trials_per_ref", trials_per_op * n / sum(norm), "1/ref", n)
        self.latency("op", walls)
        self.put("trials_per_s", trials_per_op * n / sum(walls), "1/s", n)
        self.put("ref_s", stats.median(refs), "s", n)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, from ``/proc`` (Linux)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reference_s() -> float:
    """Seconds taken by a fixed CPU reference: a pure-Python loop that
    allocates nothing the garbage collector tracks.

    The host's speed swings by up to 2x within a minute (other tenants;
    the guest sees no steal time), and those swings move the
    interpreter-bound ops and this reference alike.  An op's seconds
    over the reference seconds measured around it -- its cost in
    reference units -- is therefore far steadier from run to run than
    its seconds, while a change to the program still moves it by the
    same factor."""
    start = time.perf_counter()
    total = 0
    for k in range(_REF_LOOP):
        total += k * k
    return time.perf_counter() - start


def timed(call: Callable[[], object]):
    """``(result, wall seconds, reference seconds)`` of one op; the
    reference is the mean of one measurement before and one after."""
    before = reference_s()
    start = time.perf_counter()
    result = call()
    wall = time.perf_counter() - start
    return result, wall, (before + reference_s()) / 2


class Clock:
    """Closed-loop run length: ops start until ``seconds`` have passed
    since the clock was made; the first op always runs."""

    def __init__(self, seconds: float) -> None:
        self.deadline = time.perf_counter() + seconds
        self.first = True

    def more(self) -> bool:
        go = self.first or time.perf_counter() < self.deadline
        self.first = False
        return go


def finish_trace(out: Outcome, tr, untraced: float, traced: float, extra: Dict[str, float]) -> None:
    """Per-layer values of a traced run: span totals, layer self times,
    counts, and the tracing overhead (traced minus untraced wall of the
    same ops in the same run)."""
    totals = tr.totals()
    layers = out.layers
    for name, value in totals.items():
        layers[f"{name}_s"] = value
    for layer, value in tr.self_times().items():
        layers[f"{layer}.self_s"] = value
    # engine.run minus its replayed layers (0 where nothing ran through it)
    layers["engine.dispatch_s"] = layers.get("engine.self_s", 0.0)
    layers.update(extra)
    layers["trace.untraced_s"] = untraced
    layers["trace.traced_s"] = traced
    layers["trace.overhead_s"] = traced - untraced
    layers["trace.spans"] = len(tr.spans)
    layers["trace.ref_s"] = stats.median([reference_s() for _ in range(5)])
