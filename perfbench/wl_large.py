"""``large``: one paper-model ad hoc network at scale.

A random geometric graph on the unit square, ``N`` nodes, expected
degree 8.  Set-up is ``Graph()`` plus the first ``adjacency_arrays()``,
done ``SETUPS`` times.  One op is SMM and then SIS stabilizing from
random starts through ``engine.run`` on the last graph built.
"""

from __future__ import annotations

import gc
import time

import numpy as np

import gen
import layers
import oracles
import stats
from common import Clock, Outcome, finish_trace, reference_s, self_peak_rss_mb, timed
from tracer import Tracer

from repro import engine
from repro.graphs.graph import Graph

N = 250_000
SETUPS = 3


def _starts(csr, rng):
    return {
        "smm": gen.smm_config(csr.random_pointers(rng)),
        "sis": gen.sis_config(rng.integers(0, 2, csr.n)),
    }


def _check(out: Outcome, csr, mis, results) -> None:
    out.op([oracles.check_run(key, csr, mis, res) for key, res in results.items()])


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    rng = np.random.default_rng([seed, 2])
    edges = gen.geometric_edges(N, 8.0, rng)
    nodes, edge_list = gen.as_lists(N, edges)
    csr = gen.CSR(N, edges)
    del edges
    mis = oracles.greedy_mis(csr)
    out = Outcome()
    if trace:
        return _traced(out, nodes, edge_list, csr, mis, rng)

    setups, setup_refs = [], []
    graph = None
    for _ in range(SETUPS):
        graph = None  # the previous graph is freed before the next is built
        gc.collect()
        (graph, _, _), wall, ref = timed(lambda: layers.timed_build(None, Graph, nodes, edge_list))
        setups.append(wall)
        setup_refs.append(ref)
    walls, refs = [], []
    clock = Clock(seconds)
    while clock.more():
        starts = _starts(csr, rng)
        gc.collect()  # no garbage of the previous op left to collect
        # each run between its own pair of reference samples: an op is
        # long next to the host's speed swings
        results, parts, cost = {}, [], 0.0
        before = reference_s()
        for key, cfg in starts.items():
            t0 = time.perf_counter()
            results[key] = engine.run(key, graph, cfg)
            parts.append(time.perf_counter() - t0)
            after = reference_s()
            cost += parts[-1] / ((before + after) / 2)
            before = after
        walls.append(sum(parts))
        refs.append(sum(parts) / cost)  # the reference time that gives this cost
        _check(out, csr, mis, results)
        results = None
    out.setup(setups, setup_refs)
    out.put("peak_rss_mb", self_peak_rss_mb(), "MB", 1)
    out.ops(walls, refs, 2)
    out.put("stabilize_s", stats.median(walls), "s", len(walls))
    return out


def _traced(out: Outcome, nodes, edge_list, csr, mis, rng) -> Outcome:
    graph, setup_untraced, _ = layers.timed_build(None, Graph, nodes, edge_list)
    graph = None
    gc.collect()
    tr = Tracer()
    tr.op = "setup"
    with tr.span("bench.setup") as setup_root:
        graph, _, csr_bytes = layers.timed_build(tr, Graph, nodes, edge_list, parent=setup_root)

    # Every run starts from a collected heap with no earlier result alive,
    # so plain runs, traced runs and replays pay the same collector work;
    # each run is replayed right after it ran, so the replay meets the
    # same host speed as the run.
    starts = _starts(csr, rng)
    untraced, traced = setup_untraced, tr.dur(setup_root)
    tr.op = "stabilize-0"
    counts: dict = {}
    for key, cfg in starts.items():
        gc.collect()
        t0 = time.perf_counter()
        res = engine.run(key, graph, cfg)
        untraced += time.perf_counter() - t0
        out.op([oracles.check_run(key, csr, mis, res)])
        res = None
        gc.collect()
        with tr.span("engine.run") as span:
            res = engine.run(key, graph, cfg)
        traced += tr.dur(span)
        out.op([oracles.check_run(key, csr, mis, res)])
        res = None
        gc.collect()
        layers.replay_run(tr, key, graph, cfg, span, counts)
    extra = dict(counts)
    extra["graphs.csr_bytes"] = csr_bytes
    finish_trace(out, tr, untraced, traced, extra)
    out.tracer = tr
    return out
