"""The fault-campaign driver: apply a :class:`FaultPlan` mid-run.

One driver serves every backend.  A campaign is a sequence of
*segments* — stretches of ordinary synchronous rounds between fault
events — executed by a backend adapter, stitched together here with the
global round accounting, the telemetry recording and the per-event
recovery metrics.  The adapter interface is tiny:

* ``run_segment(budget)`` — advance the run up to ``budget`` rounds or
  quiescence, reporting per-round counters and the touched nodes;
* ``apply(event, gen)`` — apply one fault event to the live state,
  returning the fault sites;
* ``graph`` / ``config()`` — the current topology and configuration.

Round semantics: an event with ``round = r`` fires after global round
``r``.  If the system stabilizes earlier, the quiescent rounds up to
``r`` still count (in the paper's model the beacons keep being
exchanged in a stable system); they appear as empty ``{}`` move-log
entries.  Events scheduled past the round budget never fire.  The
recovery window of an event is the segment that follows it — up to the
next event or the budget — and produces one record in
``telemetry.fault_events``: whether the system re-stabilized, how many
rounds and moves it took, how many nodes moved, and the containment
radius in hops from the fault sites (:mod:`repro.analysis.containment`).

All counter fields — rounds, moves by rule, and every number in the
recovery records — are byte-identical across backends for the same plan
and seed, because victim selection and state redraws run against each
event's own seeded generator, independent of the daemon's stream.
Campaign runs always collect telemetry (the recovery metrics live
there), whatever the ``telemetry`` flag says.

``history`` (reference backend, ``record_history=True``) gains one
extra entry per fault event — the configuration right after the fault
is applied — so its length is ``rounds + 1 + len(fault_events)``
rather than the ordinary ``rounds + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.containment import containment_radius, edge_fault_sites
from repro.core.configuration import Configuration
from repro.core.faults import migrate_configuration, perturb_victims
from repro.errors import ExperimentError, ProtocolError, StabilizationTimeout
from repro.graphs.graph import Graph
from repro.graphs.mutations import apply_churn
from repro.resilience.plan import FaultEvent, FaultPlan
from repro.rng import ensure_rng
from repro.types import NodeId

__all__ = [
    "CampaignRuntime",
    "run_reference_campaign",
    "select_victims",
]


# ----------------------------------------------------------------------
# event application (shared by every backend)
# ----------------------------------------------------------------------
def select_victims(graph: Graph, event: FaultEvent, gen) -> Tuple[NodeId, ...]:
    """The victim nodes of a node-targeting event, in draw order.

    Explicit ``event.nodes`` are validated against the graph; otherwise
    victims are drawn through :func:`~repro.core.faults.perturb_victims`
    (one ``gen.choice`` call over dense indices — the vectorized fast
    path mirrors the same draw on the dense array).
    """
    if event.nodes:
        index = graph.dense_index()
        for node in event.nodes:
            if node not in index:
                raise ExperimentError(
                    f"fault event names unknown node {node!r}"
                )
        return tuple(event.nodes)
    return perturb_victims(graph, event.victim_count(graph.n), gen)


def _sanitize(protocol, graph: Graph, node: NodeId, state):
    """One node's state carried across a believed-topology change, with
    the same narrow error semantics as ``migrate_configuration``."""
    fn = getattr(protocol, "sanitize_state", None)
    if fn is not None:
        return fn(node, graph, state)
    try:
        protocol.validate_state(node, graph, state)
    except ProtocolError:
        return protocol.initial_state(node, graph)
    return state


def _incident_edges(graph: Graph, nodes) -> Tuple[Tuple[NodeId, NodeId], ...]:
    """Canonical edges incident to ``nodes``, deduplicated, sorted."""
    out = set()
    for node in nodes:
        for other in graph.neighbors(node):
            out.add((node, other) if node <= other else (other, node))
    return tuple(sorted(out))


class CampaignRuntime:
    """Mutable campaign state shared across events: which nodes are
    crashed, and which links their crash took down (so ``rejoin``
    restores exactly those, deferring links whose other endpoint is
    still down)."""

    def __init__(self) -> None:
        self._down: Dict[NodeId, List[Tuple[NodeId, NodeId]]] = {}

    @property
    def crashed(self) -> Tuple[NodeId, ...]:
        return tuple(sorted(self._down))

    def apply(
        self, protocol, graph: Graph, config: Configuration, event: FaultEvent, gen
    ) -> Tuple[Graph, Configuration, Tuple[NodeId, ...]]:
        """Apply ``event``; returns ``(graph, config, fault_sites)``."""
        kind = event.kind
        if kind in ("perturb", "message_dup"):
            victims = select_victims(graph, event, gen)
            changes = {
                node: protocol.random_state(node, graph, gen) for node in victims
            }
            out = config.updated(changes)
            protocol.validate_configuration(graph, out)
            return graph, out, victims
        if kind == "message_loss":
            return self._message_loss(protocol, graph, config, event, gen)
        if kind == "churn":
            return self._churn(protocol, graph, config, event, gen)
        if kind == "crash":
            return self._crash(protocol, graph, config, event, gen)
        if kind == "rejoin":
            return self._rejoin(protocol, graph, config, event)
        raise ExperimentError(f"unknown fault kind {kind!r}")  # pragma: no cover

    def _message_loss(self, protocol, graph, config, event, gen):
        # the victims' beacons vanish long enough for their neighbours
        # to evict them: every OTHER node sanitizes its state against a
        # phantom topology without the victims' links.  The true
        # topology is unchanged — this is a belief fault, not a link
        # fault.  (A no-op for bit protocols such as SIS, whose states
        # reference no neighbour.)
        victims = select_victims(graph, event, gen)
        phantom = graph.with_edges(remove=_incident_edges(graph, victims))
        victim_set = set(victims)
        out = {}
        for node in graph.nodes:
            state = config[node]
            if node not in victim_set:
                state = _sanitize(protocol, phantom, node, state)
            out[node] = state
        cfg = Configuration(out)
        protocol.validate_configuration(graph, cfg)
        return graph, cfg, victims

    def _churn(self, protocol, graph, config, event, gen):
        if event.add_edges or event.remove_edges:
            new_graph = graph.with_edges(
                add=event.add_edges, remove=event.remove_edges
            )
            changed = (*event.add_edges, *event.remove_edges)
        else:
            new_graph, churn_events = apply_churn(graph, event.churn, gen)
            changed = tuple(
                e for ev in churn_events for e in (*ev.added, *ev.removed)
            )
        out = migrate_configuration(protocol, graph, new_graph, config)
        sites = tuple(sorted(edge_fault_sites(changed)))
        return new_graph, out, sites

    def _crash(self, protocol, graph, config, event, gen):
        if event.nodes:
            victims = select_victims(graph, event, gen)
            already = [v for v in victims if v in self._down]
            if already:
                raise ExperimentError(
                    f"crash event names already-crashed nodes {already}"
                )
        else:
            alive = [v for v in graph.nodes if v not in self._down]
            count = min(event.victim_count(graph.n), len(alive))
            picks = gen.choice(len(alive), size=count, replace=False)
            victims = tuple(alive[int(k)] for k in picks)
        former_neighbors = set()
        for v in victims:
            former_neighbors.update(graph.neighbors(v))
        removed = _incident_edges(graph, victims)
        new_graph = graph.with_edges(remove=removed)
        out = migrate_configuration(protocol, graph, new_graph, config)
        out = out.updated(
            {v: protocol.initial_state(v, new_graph) for v in victims}
        )
        protocol.validate_configuration(new_graph, out)
        for v in victims:
            self._down[v] = [e for e in removed if v in e]
        sites = tuple(sorted(set(victims) | former_neighbors))
        return new_graph, out, sites

    def _rejoin(self, protocol, graph, config, event):
        rejoining = tuple(event.nodes) if event.nodes else self.crashed
        unknown = [v for v in rejoining if v not in self._down]
        if unknown:
            raise ExperimentError(
                f"rejoin event names nodes that are not down: {unknown}"
            )
        rejoin_set = set(rejoining)
        still_down = set(self._down) - rejoin_set
        restore = set()
        deferred: List[Tuple[NodeId, Tuple[NodeId, NodeId]]] = []
        for v in rejoining:
            for edge in self._down.pop(v):
                other = edge[0] if edge[1] == v else edge[1]
                if other in still_down:
                    # the link waits for the other endpoint's rejoin
                    deferred.append((other, edge))
                else:
                    restore.add(edge)
        for owner, edge in deferred:
            if edge not in self._down[owner]:
                self._down[owner].append(edge)
        # a churn event may have re-created a downed link meanwhile
        restore = tuple(
            sorted(e for e in restore if not graph.has_edge(*e))
        )
        new_graph = graph.with_edges(add=restore)
        out = migrate_configuration(protocol, graph, new_graph, config)
        touched_ends = {x for e in restore for x in e}
        sites = tuple(sorted(rejoin_set | touched_ends))
        return new_graph, out, sites


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
@dataclass
class Segment:
    """What one stretch of rounds between events reports back."""

    rounds: int
    stabilized: bool
    per_round: List[Dict[str, int]]
    active_sizes: List[int]
    census: Optional[List[Dict[str, int]]]
    touched: frozenset
    move_log: Optional[List[Dict[NodeId, str]]] = None
    history: Optional[List[Configuration]] = None


def _recovery_record(
    graph: Graph, index: int, event: FaultEvent, sites, seg: Segment
) -> Dict[str, object]:
    moves_by_rule: Dict[str, int] = {}
    for entry in seg.per_round:
        for name, count in entry.items():
            moves_by_rule[name] = moves_by_rule.get(name, 0) + count
    radius = None
    if sites and seg.touched:
        radius = containment_radius(graph, set(sites), seg.touched)
    return {
        "index": index,
        "kind": event.kind,
        "round": event.round,
        "sites": sorted(int(s) for s in sites),
        "recovered": bool(seg.stabilized),
        "recovery_rounds": int(seg.rounds),
        "moves": int(sum(moves_by_rule.values())),
        "moves_by_rule": {k: int(v) for k, v in sorted(moves_by_rule.items())},
        "touched": int(len(seg.touched)),
        "radius": None if radius is None else int(radius),
    }


def drive_campaign(
    protocol,
    adapter,
    plan: FaultPlan,
    *,
    budget: int,
    backend: str,
    record_history: bool = False,
):
    """Run the segmented campaign loop against ``adapter``.

    Returns ``(summary dict, telemetry)`` — the caller wraps them in its
    backend's result type.
    """
    from repro.observability import TelemetryRecorder
    from repro.observability import tracing as _tracing

    tracer = _tracing.current_tracer()
    recorder = TelemetryRecorder(
        protocol.name, "synchronous", backend, protocol.rule_names()
    )
    initial_census = adapter.initial_census()
    if initial_census is not None:
        recorder.record_census(initial_census)
    last_census = initial_census
    recorder.begin_rounds()

    traces = getattr(adapter, "traces", False)
    move_log: Optional[List[Dict[NodeId, str]]] = [] if traces else None
    history: Optional[List[Configuration]] = (
        [adapter.config()] if (record_history and traces) else None
    )
    fault_records: List[Dict[str, object]] = []
    events = [ev for ev in plan.events if ev.round <= budget]
    elapsed = 0
    stabilized = False
    pending: Optional[Tuple[int, FaultEvent, tuple]] = None
    pending_start: Optional[float] = None
    i = 0
    while True:
        target = events[i].round if i < len(events) else None
        seg = adapter.run_segment((budget if target is None else target) - elapsed)
        for t in range(seg.rounds):
            recorder.on_round(
                seg.per_round[t],
                seg.active_sizes[t],
                seg.census[t] if seg.census is not None else None,
            )
        if seg.census:
            last_census = seg.census[-1]
        if move_log is not None and seg.move_log is not None:
            move_log.extend(seg.move_log)
        if history is not None and seg.history is not None:
            history.extend(seg.history[1:])
        elapsed += seg.rounds
        if pending is not None:
            rec = _recovery_record(adapter.graph, *pending, seg)
            fault_records.append(rec)
            if tracer is not None:
                # one span per fault event, covering its recovery
                # window (application through re-stabilization — or
                # budget/next-event cutoff), nested in the run span
                tracer.record(
                    f"fault:{rec['kind']}",
                    pending_start,
                    tracer.now(),
                    index=rec["index"],
                    round=rec["round"],
                    sites=len(rec["sites"]),
                    recovered=rec["recovered"],
                    recovery_rounds=rec["recovery_rounds"],
                    moves=rec["moves"],
                    touched=rec["touched"],
                    radius=rec["radius"],
                )
            pending = None
        if target is None:
            stabilized = seg.stabilized
            break
        # idle fill: the system is quiescent but rounds keep ticking
        # until the event fires (beacons are still exchanged)
        for _ in range(target - elapsed):
            recorder.on_round({}, 0, last_census)
            if move_log is not None:
                move_log.append({})
            if history is not None:
                history.append(history[-1])
        elapsed = target
        pending_start = None if tracer is None else tracer.now()
        sites = adapter.apply(events[i], plan.event_rng(i))
        if history is not None:
            history.append(adapter.config())
        pending = (i, events[i], sites)
        i += 1

    recorder.begin_finalize()
    telemetry = recorder.finish()
    telemetry.fault_events = fault_records
    final = adapter.config()
    summary = {
        "stabilized": stabilized,
        "rounds": elapsed,
        "moves": telemetry.moves,
        "moves_by_rule": dict(telemetry.moves_by_rule),
        "final": final,
        "move_log": move_log,
        "history": history,
        "legitimate": adapter.legitimate(),
        "final_graph": adapter.graph,
    }
    return summary, telemetry


# ----------------------------------------------------------------------
# reference-backend adapter and entry point
# ----------------------------------------------------------------------
class _ReferenceAdapter:
    traces = True

    def __init__(self, protocol, graph, config, gen, record_history, active_set):
        from repro.core.executor import _resolve_config

        self.protocol = protocol
        self.graph = graph
        self.current = _resolve_config(protocol, graph, config)
        self.gen = gen
        self.record_history = record_history
        self.active_set = active_set
        self.runtime = CampaignRuntime()

    def initial_census(self):
        from repro.observability import census_of, wants_census

        if wants_census(self.protocol):
            return census_of(self.graph, self.current)
        return None

    def config(self) -> Configuration:
        return self.current

    def legitimate(self) -> bool:
        return self.protocol.is_legitimate(self.graph, self.current)

    def run_segment(self, budget: int) -> Segment:
        from repro.core.executor import run_synchronous

        ex = run_synchronous(
            self.protocol,
            self.graph,
            self.current,
            rng=self.gen,
            max_rounds=budget,
            record_history=self.record_history,
            telemetry=True,
            active_set=self.active_set,
        )
        self.current = ex.final
        touched = set()
        for entry in ex.move_log:
            touched.update(entry)
        census = ex.telemetry.node_type_census
        return Segment(
            rounds=ex.rounds,
            stabilized=ex.stabilized,
            per_round=ex.telemetry.per_round_moves,
            active_sizes=ex.telemetry.active_set_sizes,
            census=None if census is None else census[1:],
            touched=frozenset(touched),
            move_log=ex.move_log,
            history=ex.history,
        )

    def apply(self, event: FaultEvent, gen):
        self.graph, self.current, sites = self.runtime.apply(
            self.protocol, self.graph, self.current, event, gen
        )
        return sites


def run_reference_campaign(
    protocol,
    graph: Graph,
    config=None,
    *,
    fault_plan: FaultPlan,
    rng=None,
    max_rounds: Optional[int] = None,
    record_history: bool = False,
    monitors: Sequence = (),
    raise_on_timeout: bool = False,
    active_set: bool = True,
    telemetry: bool = False,
):
    """Reference-engine fault campaign (``run_synchronous`` delegates
    here when ``fault_plan`` is given).

    ``monitors`` are rejected — their per-round contract does not
    survive the topology changing under them.  Telemetry is always
    collected (the recovery metrics live in it); the ``telemetry`` flag
    is accepted for signature uniformity.
    """
    del telemetry  # campaigns always collect telemetry
    if monitors:
        raise ExperimentError(
            "monitors are not supported in fault campaigns; read "
            "telemetry.fault_events instead"
        )
    from repro.core.executor import Execution, _default_round_budget

    budget = _default_round_budget(graph) if max_rounds is None else max_rounds
    adapter = _ReferenceAdapter(
        protocol, graph, config, ensure_rng(rng), record_history, active_set
    )
    initial = adapter.current
    summary, tele = drive_campaign(
        protocol,
        adapter,
        fault_plan,
        budget=budget,
        backend="reference",
        record_history=record_history,
    )
    execution = Execution(
        protocol_name=protocol.name,
        daemon="synchronous",
        stabilized=summary["stabilized"],
        rounds=summary["rounds"],
        moves=summary["moves"],
        moves_by_rule=summary["moves_by_rule"],
        initial=initial,
        final=summary["final"],
        move_log=summary["move_log"],
        history=summary["history"],
        legitimate=summary["legitimate"],
    )
    execution.telemetry = tele
    if raise_on_timeout and not execution.stabilized:
        raise StabilizationTimeout(
            f"{protocol.name} exceeded {budget} synchronous rounds "
            f"(fault campaign)",
            execution,
        )
    return execution
