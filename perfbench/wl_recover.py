"""``recover``: legitimate networks take transient faults while an
operator watches with ``convergence=True``.

Set-up builds a ``GEO_N``-node geometric graph and ``path(PATH_N)``.
Their legitimate configurations come from the program (SMM and SIS from
the clean start) and are checked by the oracles.  Ops rotate through
three recoveries, each an ``engine.run(..., convergence=True)`` from a
faulted copy of a legitimate configuration:

* SMM on the geometric graph with ``VICTIMS`` node states replaced by
  random ones (about three rounds, O(n) boundary and census work);
* SIS on the geometric graph with ``VICTIMS`` bits flipped;
* SIS on the path with the top id's bit flipped: a ``PATH_N``-round
  cascade in which per-round telemetry dominates.

Every recovery must report ``bound_ok is True`` and no monitor
violations, and pass the oracles.
"""

from __future__ import annotations

import gc
import time

import numpy as np

import gen
import layers
import oracles
from common import Clock, Outcome, finish_trace, self_peak_rss_mb, timed
from tracer import Tracer

from repro import engine
from repro.graphs.graph import Graph

GEO_N = 50_000
PATH_N = 4096
VICTIMS = 10
SETUPS = 5
TRACED_OPS = 6


class Net:
    def __init__(self, n: int, edges: np.ndarray) -> None:
        self.n = n
        self.nodes, self.edges = gen.as_lists(n, edges)
        self.csr = gen.CSR(n, edges)
        self.mis = oracles.greedy_mis(self.csr)


def _fault(kind: int, nets, graphs, legit, rng):
    """``(protocol, net index, faulted configuration)`` of op ``kind``."""
    if kind == 2:
        cfg = dict(legit[("sis", 1)])
        cfg[PATH_N - 1] = 1 - cfg[PATH_N - 1]
        return "sis", 1, cfg
    key = "smm" if kind == 0 else "sis"
    cfg = dict(legit[(key, 0)])
    victims = rng.choice(GEO_N, VICTIMS, replace=False).tolist()
    if key == "smm":
        ptr = nets[0].csr.random_pointers(rng)
        for v in victims:
            cfg[v] = None if ptr[v] < 0 else int(ptr[v])
    else:
        for v in victims:
            cfg[v] = 1 - cfg[v]
    return key, 0, cfg


def _check(key: str, net: Net, res):
    report = res.telemetry.convergence if res.telemetry is not None else None
    return [
        oracles.check_run(key, net.csr, net.mis, res),
        None if res.bound_ok is True else f"{key} bound_ok is {res.bound_ok}",
        None if report is not None and report["violations"] == 0
        else f"{key} convergence monitors reported violations",
    ]


def _legit(out: Outcome, nets, graphs):
    legit = {}
    for key, ni in (("smm", 0), ("sis", 0), ("sis", 1)):
        res = engine.run(key, graphs[ni])
        out.op([oracles.check_run(key, nets[ni].csr, nets[ni].mis, res)])
        legit[(key, ni)] = dict(res.final)
    return legit


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    rng = np.random.default_rng([seed, 3])
    nets = [Net(GEO_N, gen.geometric_edges(GEO_N, 8.0, rng)), Net(PATH_N, gen.path_edges(PATH_N))]
    out = Outcome()
    setups, setup_refs = [], []
    for _ in range(1 if trace else SETUPS):
        graphs = None  # the previous graphs are freed before the next are built
        gc.collect()
        built, wall, ref = timed(
            lambda: [layers.timed_build(None, Graph, net.nodes, net.edges) for net in nets]
        )
        setups.append(wall)
        setup_refs.append(ref)
        graphs = [b[0] for b in built]
    legit = _legit(out, nets, graphs)
    if trace:
        return _traced(out, nets, graphs, legit, rng, setups[0])

    walls, refs = [], []
    clock = Clock(seconds)
    while clock.more():
        key, ni, cfg = _fault(len(walls) % 3, nets, graphs, legit, rng)
        res = None
        gc.collect()  # no garbage of the previous op left to collect
        res, wall, ref = timed(lambda: engine.run(key, graphs[ni], cfg, convergence=True))
        walls.append(wall)
        refs.append(ref)
        out.op(_check(key, nets[ni], res))
    out.setup(setups, setup_refs)
    out.put("peak_rss_mb", self_peak_rss_mb(), "MB", 1)
    out.ops(walls, refs, 1)
    out.latency("recover", walls)
    return out


def _traced(out: Outcome, nets, graphs, legit, rng, setup_untraced) -> Outcome:
    tr = Tracer()
    tr.op = "setup"
    with tr.span("bench.setup") as setup_root:
        csr_bytes = 0
        for net in nets:
            csr_bytes += layers.timed_build(tr, Graph, net.nodes, net.edges, parent=setup_root)[2]
    untraced = setup_untraced
    traced = tr.dur(setup_root)
    counts: dict = {}
    for i in range(TRACED_OPS):
        key, ni, cfg = _fault(i % 3, nets, graphs, legit, rng)
        res = None
        gc.collect()
        t0 = time.perf_counter()
        res = engine.run(key, graphs[ni], cfg, convergence=True)
        untraced += time.perf_counter() - t0
        out.op(_check(key, nets[ni], res))
        res = None
        gc.collect()
        tr.op = f"recover-{i}"
        with tr.span("bench.op") as root:
            with tr.span("engine.run") as run_span:
                res = engine.run(key, graphs[ni], cfg, convergence=True)
        traced += tr.dur(root)
        out.op(_check(key, nets[ni], res))
        layers.replay_run(tr, key, graphs[ni], cfg, run_span, counts, result=res)
    extra = dict(counts)
    extra["graphs.csr_bytes"] = csr_bytes
    finish_trace(out, tr, untraced, traced, extra)
    out.tracer = tr
    return out
