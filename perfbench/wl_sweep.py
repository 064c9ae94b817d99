"""``sweep``: experiment-harness traffic through ``run_trials``.

One op is one sweep as an experiment makes it: build the four graphs
from their edge lists, then ``run_trials(specs, jobs=1)`` over SMM and
SIS from ``TRIALS`` random starts each on every graph, ``backend="auto"``.
The sizes straddle the batch-sweep size limit (SMM 2048 nodes), so both
the batch kernels and the per-trial kernels run.
"""

from __future__ import annotations

import gc
import math
import time
from collections import defaultdict

import numpy as np

import gen
import layers
import oracles
from common import Clock, Outcome, finish_trace, self_peak_rss_mb, timed
from tracer import Tracer

from repro.graphs.graph import Graph
from repro.parallel import TrialSpec, run_trials

#: (family, n) of the sweep's graphs
GRAPHS = (("er", 256), ("er", 4096), ("geometric", 512), ("grid", 1024))
TRIALS = 12  # per (graph, protocol): 96 trials per sweep
SETUPS = 15


class Cell:
    def __init__(self, family: str, n: int, rng: np.random.Generator) -> None:
        if family == "er":
            edges = gen.er_edges(n, 2 * math.log(n), rng)
        elif family == "geometric":
            edges = gen.geometric_edges(n, 8.0, rng)
        else:
            edges = gen.grid_edges(math.isqrt(n), rng)
        self.n = n
        self.nodes, self.edges = gen.as_lists(n, edges)
        self.csr = gen.CSR(n, edges)
        self.mis = oracles.greedy_mis(self.csr)


def _plan(cells, rng):
    """``[(protocol, cell index, config)]`` for one sweep."""
    plan = []
    for ci, cell in enumerate(cells):
        for _ in range(TRIALS):
            plan.append(("smm", ci, gen.smm_config(cell.csr.random_pointers(rng))))
        for _ in range(TRIALS):
            plan.append(("sis", ci, gen.sis_config(rng.integers(0, 2, cell.n))))
    return plan


def _check(out: Outcome, cells, plan, results) -> None:
    for (key, ci, _), res in zip(plan, results):
        out.op([oracles.check_run(key, cells[ci].csr, cells[ci].mis, res)])


def _sweep(cells, plan):
    """One op; returns ``(graphs, results)``."""
    graphs = [Graph(c.nodes, c.edges) for c in cells]
    specs = [TrialSpec(key, graphs[ci], cfg, backend="auto") for key, ci, cfg in plan]
    return graphs, run_trials(specs, jobs=1)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    rng = np.random.default_rng([seed, 1])
    cells = [Cell(family, n, rng) for family, n in GRAPHS]
    out = Outcome()
    if trace:
        return _traced(out, cells, rng)

    # every timed phase starts from a collected heap, so the collector
    # work it pays is its own
    setups, setup_refs = [], []
    for _ in range(SETUPS):
        gc.collect()
        _, wall, ref = timed(lambda: [layers.timed_build(None, Graph, c.nodes, c.edges) for c in cells])
        setups.append(wall)
        setup_refs.append(ref)
    walls, refs = [], []
    clock = Clock(seconds)
    while clock.more():
        plan = _plan(cells, rng)
        gc.collect()
        (_, results), wall, ref = timed(lambda: _sweep(cells, plan))
        walls.append(wall)
        refs.append(ref)
        _check(out, cells, plan, results)
        results = None
    out.setup(setups, setup_refs)
    out.put("peak_rss_mb", self_peak_rss_mb(), "MB", 1)
    out.ops(walls, refs, len(plan))
    return out


def _traced(out: Outcome, cells, rng) -> Outcome:
    plan = _plan(cells, rng)
    gc.collect()
    start = time.perf_counter()
    _, results = _sweep(cells, plan)
    untraced = time.perf_counter() - start
    _check(out, cells, plan, results)
    results = None
    gc.collect()

    tr = Tracer()
    tr.op = "sweep-0"
    csr_bytes = 0
    with tr.span("bench.op") as root:
        graphs = []
        for c in cells:
            graph, _, nbytes = layers.timed_build(tr, Graph, c.nodes, c.edges, parent=root)
            graphs.append(graph)
            csr_bytes += nbytes
        specs = [TrialSpec(key, graphs[ci], cfg, backend="auto") for key, ci, cfg in plan]
        with tr.span("parallel.run_trials") as sweep_span:
            results = run_trials(specs, jobs=1)
    traced = tr.dur(root)
    _check(out, cells, plan, results)

    counts: dict = {}
    groups = defaultdict(list)
    for (key, ci, cfg), res in zip(plan, results):
        if res.backend == "batch":
            groups[(key, ci)].append(cfg)
        else:
            run_span = tr.record("engine.run", res.elapsed, parent=sweep_span)
            layers.replay_run(tr, key, graphs[ci], cfg, run_span, counts)
    for (key, ci), cfgs in groups.items():
        layers.replay_batch(tr, key, graphs[ci], cfgs, sweep_span, counts)

    batched = sum(1 for r in results if r.backend == "batch")
    extra = dict(counts)
    extra["graphs.csr_bytes"] = csr_bytes
    extra["parallel.sweep_overhead_s"] = tr.dur(sweep_span) - sum(r.elapsed for r in results)
    extra["parallel.batched_frac"] = batched / len(results)
    finish_trace(out, tr, untraced, traced, extra)
    out.tracer = tr
    return out
