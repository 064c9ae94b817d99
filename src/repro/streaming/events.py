"""Topology event streams as :class:`~repro.resilience.plan.FaultPlan` data.

A stream schedule is just a fault plan whose rounds come from a Poisson
arrival process (or from a trace file), so the whole campaign machinery
— per-event seeded generators, backend-identical victim draws,
JSON round-tripping — is reused unchanged.

:func:`poisson_plan` generates **explicit** events: churn events carry
concrete ``add_edges``/``remove_edges`` (maintained against a simulated
copy of the edge set, so consecutive events stay consistent — no
"remove absent edge" surprises) and perturb events carry concrete
victim nodes.  Explicit events keep the vectorized engine on its array
fast paths: an explicit single-edge churn patches the graph's CSR
arrays (:meth:`~repro.graphs.graph.Graph.with_updates`) instead of
decoding the whole configuration.

Rates are in events per synchronous round.  Inter-arrival gaps are
exponential with mean ``1 / rate``; fractional arrival times accumulate
before rounding, so the long-run rate is exact even when ``rate > 1``
(several events then share a round, which the campaign round semantics
already allow).
"""

from __future__ import annotations

import json
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.graphs.graph import Graph
from repro.resilience.plan import FaultEvent, FaultPlan

__all__ = ["load_trace", "poisson_plan"]

#: Event kinds :func:`poisson_plan` can draw.  ``crash`` implies paired
#: ``rejoin`` events; the default mix keeps the node set alive, which
#: chunked soak regeneration relies on.
STREAM_KINDS = ("churn", "perturb", "message_dup", "crash")


def _canon(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u <= v else (v, u)


def poisson_plan(
    graph: Graph,
    *,
    rate: float,
    events: int,
    seed: int = 0,
    kinds: Sequence[str] = ("churn", "perturb"),
    start_round: int = 0,
) -> FaultPlan:
    """A Poisson schedule of ``events`` explicit topology/state events.

    ``rate`` is the expected number of events per synchronous round.
    Each arrival draws its kind uniformly from ``kinds``:

    * ``churn`` — toggle one link: remove a random present edge or add a
      random absent pair (50/50 where both are possible), tracked
      against a simulated edge set so the sequence is always applicable;
    * ``perturb`` / ``message_dup`` — redraw one random node's state
      (explicit victim, so backends select identically without a draw
      at apply time);
    * ``crash`` — fail-stop one alive node; each subsequent crash slot
      rejoins *all* crashed nodes with probability one half, so crashes
      never accumulate without bound.

    The plan seed is ``seed``; per-event apply-time randomness (the
    perturb redraws) still comes from the plan's own per-event
    generators, independent of this schedule generator.
    """
    if rate <= 0:
        raise ExperimentError(f"event rate must be > 0, got {rate}")
    if events < 0:
        raise ExperimentError(f"event count must be >= 0, got {events}")
    unknown = [k for k in kinds if k not in STREAM_KINDS]
    if unknown:
        raise ExperimentError(
            f"unknown stream kinds {unknown}; known: {list(STREAM_KINDS)}"
        )
    if not kinds:
        raise ExperimentError("need at least one event kind")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x57EA]))
    nodes = sorted(int(v) for v in graph.nodes)
    n = len(nodes)
    edge_set = {_canon(int(u), int(v)) for u, v in graph.edges}
    down: dict[int, list[Tuple[int, int]]] = {}
    clock = float(start_round)
    out = []
    for _ in range(events):
        clock += rng.exponential(1.0 / rate)
        rnd = int(clock)
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "churn":
            ev = _churn_event(rnd, rng, nodes, edge_set, down)
        elif kind in ("perturb", "message_dup"):
            alive = [v for v in nodes if v not in down]
            victim = alive[int(rng.integers(len(alive)))]
            ev = FaultEvent(round=rnd, kind=kind, nodes=(victim,))
        else:  # crash / rejoin pairing
            ev = _crash_event(rnd, rng, nodes, edge_set, down)
        if ev is not None:
            out.append(ev)
    return FaultPlan(events=tuple(out), seed=int(seed))


def _churn_event(rnd, rng, nodes, edge_set, down):
    """Toggle one link among alive endpoints; updates ``edge_set``."""
    alive = [v for v in nodes if v not in down]
    candidates = sorted(
        e for e in edge_set if e[0] not in down and e[1] not in down
    )
    can_add = len(alive) >= 2
    remove_first = bool(candidates) and (not can_add or rng.random() < 0.5)
    if remove_first:
        edge = candidates[int(rng.integers(len(candidates)))]
        edge_set.discard(edge)
        return FaultEvent(round=rnd, kind="churn", remove_edges=(edge,))
    if can_add:
        for _ in range(64):  # rejection-sample an absent pair
            i = int(rng.integers(len(alive)))
            j = int(rng.integers(len(alive)))
            if i == j:
                continue
            edge = _canon(alive[i], alive[j])
            if edge not in edge_set:
                edge_set.add(edge)
                return FaultEvent(round=rnd, kind="churn", add_edges=(edge,))
    if candidates:  # dense graph: fall back to a removal
        edge = candidates[int(rng.integers(len(candidates)))]
        edge_set.discard(edge)
        return FaultEvent(round=rnd, kind="churn", remove_edges=(edge,))
    return None  # nothing togglable (degenerate graph)


def _crash_event(rnd, rng, nodes, edge_set, down):
    """Crash one alive node, or rejoin everyone; updates the trackers."""
    if down and rng.random() < 0.5:
        for edges in down.values():
            edge_set.update(edges)
        down.clear()
        return FaultEvent(round=rnd, kind="rejoin")
    alive = [v for v in nodes if v not in down]
    if len(alive) <= 1:  # keep at least one node alive
        return None
    victim = alive[int(rng.integers(len(alive)))]
    incident = sorted(e for e in edge_set if victim in e)
    down[victim] = incident
    edge_set.difference_update(incident)
    return FaultEvent(round=rnd, kind="crash", nodes=(victim,))


def load_trace(path) -> FaultPlan:
    """Read a trace schedule: FaultPlan JSON, or JSONL of event objects.

    A file whose JSON root is an object with ``events`` is parsed as a
    full :class:`FaultPlan` (``FaultPlan.load`` format).  Otherwise each
    non-empty line must be one event object; a line ``{"seed": N}``
    (anywhere) sets the plan seed instead of adding an event.
    """
    with open(str(path), "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, dict) and "events" in data:
        return FaultPlan.from_dict(data)
    events = []
    seed = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ExperimentError(
                f"trace line {lineno} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(obj, dict):
            raise ExperimentError(f"trace line {lineno} must be an object")
        if set(obj) == {"seed"}:
            seed = int(obj["seed"])
            continue
        events.append(FaultEvent.from_dict(obj))
    return FaultPlan(events=tuple(events), seed=seed)
