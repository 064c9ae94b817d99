"""Replays of the program's entry points through its layers' public calls.

``engine.run`` and ``run_trials`` are opaque from outside.  The traced
run times each of them as a whole, then replays the same inputs through
the calls they are made of -- ``validate_configuration``, a kernel's
``encode``/``run``/``decode``, ``is_legitimate``, ``telemetry_run``,
``attach_convergence`` -- each inside a span parented to the whole call.
The parent's self time is then the call minus its layers, which is how
``engine.dispatch_s`` and the parallel layer's own time are measured.
"""

from __future__ import annotations

import time
from typing import Dict, Mapping, Optional, Sequence

from repro.core.configuration import Configuration
from repro.engine import make_protocol
from repro.matching import smm_batch, smm_vectorized
from repro.mis import sis_batch, sis_vectorized
from repro.observability.convergence import attach_convergence

from tracer import Tracer

#: protocol key -> (layer name, single kernel module, batch kernel class,
#: name of the final-state field of the kernels' results)
KERNELS = {
    "smm": ("matching", smm_vectorized, smm_batch.BatchSMM, "final_ptr"),
    "sis": ("mis", sis_vectorized, sis_batch.BatchSIS, "final_x"),
}
_SINGLE = {"smm": "VectorizedSMM", "sis": "VectorizedSIS"}


def add_counts(counts: Dict[str, float], layer: str, rounds: int, moves: int) -> None:
    counts[f"{layer}.rounds"] = counts.get(f"{layer}.rounds", 0) + rounds
    counts[f"{layer}.moves"] = counts.get(f"{layer}.moves", 0) + moves


def replay_run(
    tr: Tracer,
    key: str,
    graph,
    config: Mapping,
    parent: int,
    counts: Dict[str, float],
    *,
    result=None,
) -> None:
    """Replay ``engine.run(key, graph, config)`` on the vectorized kernel.

    With ``result`` (a ``convergence=True`` result of that call) the
    replay adds the telemetry loop -- timed as ``telemetry_run`` minus
    ``kernel.run`` on the same input -- and ``attach_convergence``.
    """
    layer, module, _, final_attr = KERNELS[key]
    protocol = make_protocol(key)
    with tr.span("core.validate", parent=parent):
        cfg = Configuration(config)
        protocol.validate_configuration(graph, cfg)
    with tr.span(f"{layer}.encode", parent=parent):
        kernel = getattr(module, _SINGLE[key])(graph)
        state = kernel.encode(cfg)
    with tr.span(f"{layer}.step", parent=parent) as step:
        res = kernel.run(state)
    if result is not None:
        start = time.perf_counter()
        # kernel.run's own default budget; every run here stabilizes
        # well inside it
        module.telemetry_run(protocol, kernel, state, graph.n + 8, "vectorized")
        wall = time.perf_counter() - start
        tr.record("observability.telemetry", wall - tr.dur(step), parent=parent)
    with tr.span(f"{layer}.decode", parent=parent):
        final = kernel.decode(getattr(res, final_attr))
    with tr.span(f"{layer}.legit", parent=parent):
        protocol.is_legitimate(graph, final)
    if result is not None:
        with tr.span("observability.convergence", parent=parent):
            attach_convergence(result, graph)
    add_counts(counts, layer, res.rounds, res.moves)


def replay_batch(
    tr: Tracer,
    key: str,
    graph,
    configs: Sequence[Mapping],
    parent: int,
    counts: Dict[str, float],
) -> None:
    """Replay one batch-sweep group: ``k`` same-graph trials as one
    ``(k, n)`` batch-kernel call."""
    layer, _, batch_cls, final_attr = KERNELS[key]
    protocol = make_protocol(key)
    with tr.span("core.validate", parent=parent):
        cfgs = [Configuration(c) for c in configs]
        for cfg in cfgs:
            protocol.validate_configuration(graph, cfg)
    with tr.span(f"{layer}.encode", parent=parent):
        kernel = batch_cls(graph)
        states = kernel.encode_batch(cfgs)
    with tr.span(f"{layer}.step", parent=parent):
        res = kernel.run_batch(states)
    with tr.span(f"{layer}.decode", parent=parent):
        finals = kernel.decode_batch(getattr(res, final_attr))
    with tr.span(f"{layer}.legit", parent=parent):
        for final in finals:
            protocol.is_legitimate(graph, final)
    moves = sum(int(v.sum()) for v in res.moves_by_rule.values())
    add_counts(counts, layer, int(res.rounds.sum()), moves)


def timed_build(tr: Optional[Tracer], graph_cls, nodes, edges, parent=None):
    """``Graph(nodes, edges)`` and its first ``adjacency_arrays()``,
    traced when ``tr`` is given.  Returns ``(graph, seconds, csr_bytes)``."""
    start = time.perf_counter()
    if tr is None:
        graph = graph_cls(nodes, edges)
        arrays = graph.adjacency_arrays()
    else:
        with tr.span("graphs.build", parent=parent):
            graph = graph_cls(nodes, edges)
        with tr.span("graphs.csr", parent=parent):
            arrays = graph.adjacency_arrays()
    seconds = time.perf_counter() - start
    return graph, seconds, sum(a.nbytes for a in arrays)
