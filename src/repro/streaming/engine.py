"""The long-lived streaming engine: one run, many topology events.

A :class:`StreamEngine` holds one protocol instance alive while a
:class:`~repro.resilience.plan.FaultPlan` schedule streams events into
it.  Between events it advances the run in *segments* (mirroring the
campaign driver's round semantics: an event at round ``r`` fires after
global round ``r``, quiescent rounds still tick, several events may
share a round with zero-round recovery windows between them) — but
unlike a campaign the engine never restarts: ``run`` may be called
repeatedly with fresh plans, each rebased onto the engine's global
round clock, which is how the soak mode stays alive indefinitely.

Per event the engine records a :class:`StreamSample` — did the system
re-stabilize inside the window to the next event (``recovered`` False
is an SLO miss: the engine fell behind the event rate), how many rounds
and moves it took, how many nodes were touched and the containment
radius from the fault sites — and feeds the ambient
:class:`~repro.observability.metrics.MetricsRegistry`.  An unrecovered
event's window length is *censored*: it says only that recovery took
longer than the window, so it is counted (``censored``) but kept out of
the re-stabilization latency distribution and its percentiles:

========================================== ============ ==============
family                                      kind         labels
========================================== ============ ==============
``repro_stream_events_total``               counter      protocol, kind
``repro_stream_recovered_total``            counter      protocol, kind
``repro_stream_recovery_rounds_total``      counter      protocol
``repro_stream_moves_total``                counter      protocol
``repro_stream_restabilize_rounds``         histogram    protocol
``repro_stream_containment_radius``         histogram    protocol
``repro_stream_restabilize_seconds``        histogram    protocol, backend
``repro_stream_events_per_second``          gauge        protocol, backend
========================================== ============ ==============

Only the last two carry a ``backend`` label: everything above them is
deterministic and byte-identical across backends for the same plan
(pinned by :meth:`StreamReport.counters` in CI's streaming smoke).

Backends
--------
Both backends reuse the fault campaign's adapters unchanged.
``reference`` steps the reference engine.  ``vectorized``
(:class:`~repro.resilience.vector.VectorAdapter`) keeps the whole
stream on the array fast path: explicit edge churn patches the graph's
CSR arrays incrementally (:meth:`~repro.graphs.graph.Graph.with_updates`),
state migration is an O(changed links) pointer reset, and each recovery
segment runs the kernel's frontier driver *seeded at the event's fault
sites*, so the kernel absorbs the event at its containment radius
instead of rescanning all ``n`` nodes.  Streams skip the per-round SMM
census (an O(m) pass the campaign telemetry needs and a stream does
not).

Memory is bounded for indefinite runs: samples are kept in a
``sample_cap``-deep window, while every aggregate (counters, and the
exact p50/p99 over value->count distributions — recovery rounds and
radii are small ints) is O(distinct values), not O(events).
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.executor import _as_configuration, _default_round_budget
from repro.errors import ExperimentError
from repro.graphs.graph import Graph
from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    current_registry,
    exponential_buckets,
)
from repro.resilience.campaign import Segment, _recovery_record, _ReferenceAdapter
from repro.resilience.plan import FaultEvent, FaultPlan
from repro.resilience.vector import VectorAdapter
from repro.rng import ensure_rng

__all__ = [
    "StreamEngine",
    "StreamReport",
    "StreamSample",
    "run_soak",
    "run_stream",
]

#: Buckets for re-stabilization rounds (1 .. 8192, doubling).
ROUNDS_BUCKETS = exponential_buckets(1.0, 2.0, 14)
#: Buckets for containment radius in hops (1 .. 512, doubling).
RADIUS_BUCKETS = exponential_buckets(1.0, 2.0, 10)


def _protocols():
    """Stream protocol key -> (protocol class, vectorized kernel class)."""
    from repro.matching.smm import SynchronousMaximalMatching
    from repro.matching.smm_vectorized import VectorizedSMM
    from repro.mis.sis import SynchronousMaximalIndependentSet
    from repro.mis.sis_vectorized import VectorizedSIS

    return {
        "smm": (SynchronousMaximalMatching, VectorizedSMM),
        "sis": (SynchronousMaximalIndependentSet, VectorizedSIS),
    }


@dataclass(frozen=True)
class StreamSample:
    """One event's recovery record (field semantics match the campaign
    driver's ``telemetry.fault_events`` entries)."""

    index: int
    kind: str
    round: int  # global engine round the event fired at
    sites: int
    recovered: bool
    rounds: int
    moves: int
    moves_by_rule: Dict[str, int]
    touched: int
    radius: Optional[int]
    wall_seconds: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "kind": self.kind,
            "round": self.round,
            "sites": self.sites,
            "recovered": self.recovered,
            "rounds": self.rounds,
            "moves": self.moves,
            "moves_by_rule": dict(self.moves_by_rule),
            "touched": self.touched,
            "radius": self.radius,
            "wall_seconds": self.wall_seconds,
        }


def _percentile(dist: Dict[int, int], q: float) -> Optional[int]:
    """Exact nearest-rank percentile of a value -> count distribution."""
    total = sum(dist.values())
    if total == 0:
        return None
    rank = max(1, math.ceil(q * total))
    seen = 0
    for value in sorted(dist):
        seen += dist[value]
        if seen >= rank:
            return value
    return max(dist)  # pragma: no cover


@dataclass
class StreamReport:
    """Aggregate SLO view of a stream run (exact, bounded-memory)."""

    protocol: str
    backend: str
    n: int
    rounds: int
    events: int
    recovered: int
    #: events whose window closed before re-stabilization (censored
    #: samples, kept out of ``rounds_dist``)
    censored: int
    events_by_kind: Dict[str, int]
    recovered_by_kind: Dict[str, int]
    recovery_rounds_total: int
    moves: int
    moves_by_rule: Dict[str, int]
    touched: int
    radius_max: Optional[int]
    #: re-stabilization latency (rounds) -> count, recovered events only
    rounds_dist: Dict[int, int]
    radius_dist: Dict[int, int]
    wall_seconds: float
    samples: List[StreamSample] = field(default_factory=list)
    #: proof-aware snapshot of the live configuration at report time
    #: (potential + safety-check counts), or ``None`` for protocols
    #: without convergence monitors; deterministic given the plan and
    #: seed, but kept out of :meth:`counters` so the cross-backend
    #: identity pin stays exactly the historical field set
    convergence: Optional[Dict[str, object]] = None

    @property
    def p50_rounds(self) -> Optional[int]:
        """Median re-stabilization latency over recovered events."""
        return _percentile(self.rounds_dist, 0.50)

    @property
    def p99_rounds(self) -> Optional[int]:
        return _percentile(self.rounds_dist, 0.99)

    @property
    def p50_radius(self) -> Optional[int]:
        return _percentile(self.radius_dist, 0.50)

    @property
    def p99_radius(self) -> Optional[int]:
        return _percentile(self.radius_dist, 0.99)

    @property
    def recovered_frac(self) -> float:
        return self.recovered / self.events if self.events else 1.0

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def counters(self) -> Dict[str, object]:
        """The deterministic aggregate: byte-identical across backends
        for the same plan and seed (wall-clock fields excluded)."""
        return {
            "rounds": self.rounds,
            "events": self.events,
            "recovered": self.recovered,
            "censored": self.censored,
            "events_by_kind": dict(sorted(self.events_by_kind.items())),
            "recovered_by_kind": dict(sorted(self.recovered_by_kind.items())),
            "recovery_rounds_total": self.recovery_rounds_total,
            "moves": self.moves,
            "moves_by_rule": dict(sorted(self.moves_by_rule.items())),
            "touched": self.touched,
            "radius_max": self.radius_max,
            "rounds_dist": {str(k): v for k, v in sorted(self.rounds_dist.items())},
            "radius_dist": {str(k): v for k, v in sorted(self.radius_dist.items())},
        }

    def to_dict(self) -> Dict[str, object]:
        out = self.counters()
        out.update(
            {
                "protocol": self.protocol,
                "backend": self.backend,
                "n": self.n,
                "recovered_frac": self.recovered_frac,
                "p50_rounds": self.p50_rounds,
                "p99_rounds": self.p99_rounds,
                "p50_radius": self.p50_radius,
                "p99_radius": self.p99_radius,
                "wall_seconds": self.wall_seconds,
                "events_per_sec": self.events_per_sec,
                "convergence": self.convergence,
                "samples": [s.to_dict() for s in self.samples],
            }
        )
        return out


class StreamEngine:
    """One never-restarting run absorbing a stream of topology events.

    ``run`` may be called repeatedly; each plan's rounds are rebased
    onto the engine's global clock, so chunked schedules (the soak mode)
    see one continuous run.  ``report()`` snapshots the aggregate SLOs
    at any point.
    """

    def __init__(
        self,
        protocol: str,
        graph: Graph,
        *,
        backend: str = "vectorized",
        config=None,
        rng=None,
        sample_cap: Optional[int] = 4096,
    ) -> None:
        protocols = _protocols()
        if protocol not in protocols:
            raise ExperimentError(
                f"unknown stream protocol {protocol!r}; "
                f"known: {sorted(protocols)}"
            )
        if backend not in ("reference", "vectorized"):
            raise ExperimentError(
                f"unknown stream backend {backend!r}; "
                "known: ['reference', 'vectorized']"
            )
        self.protocol_key = protocol
        protocol_cls, kernel_cls = protocols[protocol]
        self.protocol = protocol_cls()
        self.backend = backend
        gen = ensure_rng(rng)
        # each adapter validates: the reference one on resolution, the
        # vector one in its kernel's encode
        initial = _as_configuration(self.protocol, graph, config)
        if backend == "reference":
            self.adapter = _ReferenceAdapter(
                self.protocol, graph, initial, gen,
                record_history=False, active_set=True,
            )
        else:
            self.adapter = VectorAdapter(
                self.protocol, graph, initial, kernel_cls
            )
        self._elapsed = 0
        self._event_index = 0
        self._events_by_kind: Dict[str, int] = {}
        self._recovered_by_kind: Dict[str, int] = {}
        self._recovery_rounds = 0
        self._moves = 0
        self._moves_by_rule: Dict[str, int] = {}
        self._touched = 0
        self._radius_max: Optional[int] = None
        self._rounds_dist: Dict[int, int] = {}
        self._radius_dist: Dict[int, int] = {}
        self._wall = 0.0
        self._samples: deque = deque(maxlen=sample_cap)

    @property
    def graph(self) -> Graph:
        return self.adapter.graph

    @property
    def elapsed_rounds(self) -> int:
        return self._elapsed

    @property
    def events_seen(self) -> int:
        return self._event_index

    def config(self):
        return self.adapter.config()

    # ------------------------------------------------------------------
    def run(self, plan: FaultPlan, *, settle_budget: Optional[int] = None) -> StreamReport:
        """Stream ``plan`` into the live run and return the cumulative
        report.

        Plan rounds are relative: event round ``r`` fires after the
        engine's global round ``offset + r`` where ``offset`` is the
        clock at entry.  The window after the last event (and after the
        run stabilizes) is ``settle_budget`` rounds, defaulting to the
        executor's round budget for the current graph.
        """
        offset = self._elapsed
        events = plan.events
        run_start = time.perf_counter()
        pending: Optional[Tuple[FaultEvent, tuple, float]] = None
        i = 0
        while True:
            if i < len(events):
                target = offset + events[i].round
            else:
                tail = (
                    _default_round_budget(self.adapter.graph)
                    if settle_budget is None
                    else settle_budget
                )
                target = self._elapsed + tail
            seg = self.adapter.run_segment(target - self._elapsed)
            self._elapsed += seg.rounds
            if pending is not None:
                self._record(*pending, seg)
                pending = None
            if i >= len(events):
                break
            # idle fill: quiescent rounds tick until the event fires
            self._elapsed = target
            t0 = time.perf_counter()
            sites = self.adapter.apply(events[i], plan.event_rng(i))
            pending = (events[i], sites, t0)
            i += 1
        self._wall += time.perf_counter() - run_start
        self._set_rate_gauge()
        return self.report()

    # ------------------------------------------------------------------
    def _record(self, event: FaultEvent, sites, t0: float, seg: Segment) -> None:
        wall = time.perf_counter() - t0
        rec = _recovery_record(
            self.adapter.graph, self._event_index, event, sites, seg
        )
        moves = rec["moves"]
        sample = StreamSample(
            index=self._event_index,
            kind=event.kind,
            round=self._elapsed - seg.rounds,
            sites=len(sites),
            recovered=rec["recovered"],
            rounds=rec["recovery_rounds"],
            moves=moves,
            moves_by_rule=rec["moves_by_rule"],
            touched=rec["touched"],
            radius=rec["radius"],
            wall_seconds=wall,
        )
        self._event_index += 1
        self._events_by_kind[event.kind] = (
            self._events_by_kind.get(event.kind, 0) + 1
        )
        if sample.recovered:
            self._recovered_by_kind[event.kind] = (
                self._recovered_by_kind.get(event.kind, 0) + 1
            )
        self._recovery_rounds += sample.rounds
        self._moves += moves
        for name, count in sample.moves_by_rule.items():
            self._moves_by_rule[name] = self._moves_by_rule.get(name, 0) + count
        self._touched += sample.touched
        if sample.recovered:  # a censored window is not a latency
            self._rounds_dist[sample.rounds] = (
                self._rounds_dist.get(sample.rounds, 0) + 1
            )
        if sample.radius is not None:
            self._radius_dist[sample.radius] = (
                self._radius_dist.get(sample.radius, 0) + 1
            )
            if self._radius_max is None or sample.radius > self._radius_max:
                self._radius_max = sample.radius
        self._samples.append(sample)
        self._emit_metrics(sample)

    def _emit_metrics(self, sample: StreamSample) -> None:
        registry = current_registry()
        if registry is None:
            return
        proto = self.protocol_key
        registry.counter(
            "repro_stream_events_total", "Stream events applied"
        ).inc(1, protocol=proto, kind=sample.kind)
        if sample.recovered:
            registry.counter(
                "repro_stream_recovered_total",
                "Stream events re-stabilized within their window",
            ).inc(1, protocol=proto, kind=sample.kind)
        registry.counter(
            "repro_stream_recovery_rounds_total",
            "Rounds spent re-stabilizing after stream events",
        ).inc(sample.rounds, protocol=proto)
        registry.counter(
            "repro_stream_moves_total", "Moves made recovering from stream events"
        ).inc(sample.moves, protocol=proto)
        if sample.recovered:
            registry.histogram(
                "repro_stream_restabilize_rounds",
                "Re-stabilization latency per recovered stream event, "
                "in rounds",
                buckets=ROUNDS_BUCKETS,
            ).observe(sample.rounds, protocol=proto)
        if sample.radius is not None:
            registry.histogram(
                "repro_stream_containment_radius",
                "Containment radius per stream event, in hops",
                buckets=RADIUS_BUCKETS,
            ).observe(sample.radius, protocol=proto)
        registry.histogram(
            "repro_stream_restabilize_seconds",
            "Wall-clock apply+recover time per stream event",
            buckets=DEFAULT_BUCKETS,
        ).observe(sample.wall_seconds, protocol=proto, backend=self.backend)

    def _set_rate_gauge(self) -> None:
        registry = current_registry()
        if registry is None or self._wall <= 0:
            return
        registry.gauge(
            "repro_stream_events_per_second",
            "Sustained stream event throughput",
        ).set(
            self._event_index / self._wall,
            protocol=self.protocol_key,
            backend=self.backend,
        )

    # ------------------------------------------------------------------
    def convergence_snapshot(self) -> Optional[Dict[str, object]]:
        """Proof-aware view of the live configuration, by direct
        evaluation at call time: the current potential (SMM variant
        function / SIS enabled count — zero iff quiescent) and the
        safety-check distances of :mod:`repro.observability.convergence`.
        Mid-churn the independence/domination counts measure distance
        to safety, not protocol bugs — ``quiescent`` says which reading
        applies.  Returns ``None`` for protocols without monitors."""
        from repro.observability.convergence import (
            domination_violations,
            independence_violations,
            matching_violations,
            pointer_violations,
            protocol_family,
            sis_enabled_count,
            smm_potential_from_census,
        )
        from repro.observability.telemetry import census_of

        family = protocol_family(self.protocol_key)
        if family is None:
            return None
        graph = self.adapter.graph
        config = self.adapter.config()
        if family == "matching":
            census = census_of(graph, config)
            potential = smm_potential_from_census(census, graph.n)
            # Φ is nonzero at legitimacy (unmatched A0 nodes keep
            # paying the dominant term); quiescence is the emptiness
            # of the transient Fig. 2 classes
            quiescent = all(
                census[key] == 0 for key in ("A1", "PA", "PM", "PP")
            )
            checks = {
                "pointer_valid": pointer_violations(graph, config),
                "matching_consistent": matching_violations(graph, config),
            }
        else:
            potential = sis_enabled_count(graph, config)
            quiescent = potential == 0
            checks = {
                "independent": independence_violations(graph, config),
                "dominating": domination_violations(graph, config),
            }
        return {
            "family": family,
            "potential": int(potential),
            "quiescent": bool(quiescent),
            "checks": {k: int(v) for k, v in checks.items()},
            "violations": int(sum(checks.values())),
        }

    def report(self) -> StreamReport:
        recovered = sum(self._recovered_by_kind.values())
        return StreamReport(
            protocol=self.protocol_key,
            backend=self.backend,
            n=self.adapter.graph.n,
            rounds=self._elapsed,
            events=self._event_index,
            recovered=recovered,
            censored=self._event_index - recovered,
            events_by_kind=dict(self._events_by_kind),
            recovered_by_kind=dict(self._recovered_by_kind),
            recovery_rounds_total=self._recovery_rounds,
            moves=self._moves,
            moves_by_rule=dict(self._moves_by_rule),
            touched=self._touched,
            radius_max=self._radius_max,
            rounds_dist=dict(self._rounds_dist),
            radius_dist=dict(self._radius_dist),
            wall_seconds=self._wall,
            samples=list(self._samples),
            convergence=self.convergence_snapshot(),
        )


def run_stream(
    protocol: str,
    graph: Graph,
    plan: FaultPlan,
    *,
    backend: str = "vectorized",
    config=None,
    rng=None,
    settle_budget: Optional[int] = None,
    sample_cap: Optional[int] = 4096,
) -> StreamReport:
    """One-shot convenience: build a :class:`StreamEngine`, stream
    ``plan``, return the report."""
    engine = StreamEngine(
        protocol,
        graph,
        backend=backend,
        config=config,
        rng=rng,
        sample_cap=sample_cap,
    )
    return engine.run(plan, settle_budget=settle_budget)


def run_soak(
    protocol: str,
    graph: Graph,
    *,
    backend: str = "vectorized",
    rate: float = 0.1,
    chunk_events: int = 64,
    max_seconds: float = 10.0,
    max_chunks: Optional[int] = None,
    seed: int = 0,
    kinds=("churn", "perturb"),
    sample_cap: Optional[int] = 256,
    settle_budget: Optional[int] = None,
) -> Dict[str, object]:
    """Bounded-memory soak: stream freshly generated Poisson chunks into
    one engine until the wall-clock (or chunk) limit.

    Each chunk's schedule is generated against the engine's *current*
    graph (seeded ``seed + chunk``), so explicit edge churn stays
    applicable no matter how far the topology has drifted.  Returns the
    cumulative report plus soak accounting, including the peak RSS so CI
    can assert the run is memory-bounded.
    """
    import resource

    from repro.streaming.events import poisson_plan

    engine = StreamEngine(
        protocol, graph, backend=backend, sample_cap=sample_cap
    )
    deadline = time.monotonic() + max_seconds
    chunks = 0
    while time.monotonic() < deadline:
        if max_chunks is not None and chunks >= max_chunks:
            break
        plan = poisson_plan(
            engine.graph,
            rate=rate,
            events=chunk_events,
            seed=seed + chunks,
            kinds=kinds,
        )
        engine.run(plan, settle_budget=settle_budget)
        chunks += 1
    report = engine.report()
    return {
        "chunks": chunks,
        "events": report.events,
        "rounds": report.rounds,
        "max_rss_kb": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "report": report,
    }
