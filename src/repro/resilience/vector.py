"""Fault campaigns and streams on the vectorized SMM/SIS kernels.

The campaign driver (:mod:`repro.resilience.campaign`) and the streaming
engine (:mod:`repro.streaming.engine`) are backend agnostic; this module
supplies the one adapter that keeps their segments on the NumPy fast
path.  Segments run the kernel's frontier driver
(:meth:`repro.kernels.FrontierKernel.drive`), so every counter is
byte-identical with the reference engine while each event is absorbed
at its containment radius: after an event the dirty frontier is seeded
with the closed neighbourhood of every node whose state or adjacency
the event changed — a superset of the nodes it can enable, because
every guard reads only ``N[i]``.  If the previous window ended before
quiescence, its residual dirty set is unioned in.

Fault events apply at the array level where possible: ``perturb`` and
``message_dup`` redraw victim states directly on the dense array,
mirroring the reference path draw for draw — victims come from the same
``gen.choice`` over dense indices (:func:`~repro.core.faults.perturb_victims`
maps them to ids; here they *are* the array positions), and each
victim's redraw consumes the identical generator calls (the kernels'
``perturb_node``).  Explicit-edge churn splices the graph's CSR
(:meth:`~repro.graphs.graph.Graph.with_updates`) and migrates the dense
state in place (``drop_removed_links``).  The remaining events
(``crash``/``rejoin``, random churn, ``message_loss``) decode to a
configuration, go through the shared
:class:`~repro.resilience.campaign.CampaignRuntime`, and re-encode; they
are rare round-boundary operations, so the O(n) decode does not matter.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.containment import edge_fault_sites
from repro.graphs.graph import Graph
from repro.kernels import closed_neighborhood
from repro.resilience.campaign import (
    CampaignRuntime,
    Segment,
    drive_campaign,
    select_victims,
)
from repro.resilience.plan import FaultEvent, FaultPlan

__all__ = ["VectorAdapter", "run_vector_campaign"]


class VectorAdapter:
    """Campaign/stream adapter over a frontier kernel class.

    ``census=True`` records the kernel's Fig. 2 census (SMM) after every
    round — campaigns report it in their telemetry; streams leave it
    off, since it is an O(m) pass per round.
    """

    traces = False

    def __init__(
        self, protocol, graph: Graph, initial, kernel_cls, *, census: bool = False
    ) -> None:
        self.protocol = protocol
        self.graph = graph
        self.kernel_cls = kernel_cls
        self.kernel = kernel_cls(graph)
        self.state = self.kernel.encode(initial)
        self.runtime = CampaignRuntime()
        self._census = census and hasattr(kernel_cls, "census")
        self._dirty = None  # None = everything dirty (the initial settle)
        self._settled = False

    def initial_census(self):
        return self.kernel.census(self.state) if self._census else None

    def config(self):
        return self.kernel.decode(self.state)

    def legitimate(self) -> bool:
        return self.kernel.legitimate(self.state)

    def run_segment(self, budget: int) -> Segment:
        kernel = self.kernel
        per_round = []
        active_sizes = []
        census = [] if self._census else None

        def observe(counts, active, state):
            per_round.append(counts)
            active_sizes.append(active)
            if census is not None:
                census.append(kernel.census(state))

        touched = np.zeros(kernel.n, dtype=bool)
        moves = dict.fromkeys(kernel.RULES, 0)
        stabilized, rounds, self.state, self._dirty = kernel.drive(
            self.state,
            budget,
            moves,
            dirty=self._dirty,
            touched=touched,
            observer=observe,
        )
        self._settled = stabilized
        ids = kernel._ids
        return Segment(
            rounds=rounds,
            stabilized=stabilized,
            per_round=per_round,
            active_sizes=active_sizes,
            census=census,
            touched=frozenset(int(ids[k]) for k in np.flatnonzero(touched)),
        )

    def apply(self, event: FaultEvent, gen):
        index = self.graph.dense_index()
        changed = ()  # dense rows whose state changed beyond the sites
        if event.kind in ("perturb", "message_dup"):
            # array fast path, draw-for-draw identical to the dict path
            sites = select_victims(self.graph, event, gen)
            for node in sites:
                self.kernel.perturb_node(self.state, index[node], gen)
        elif event.kind == "churn" and (event.add_edges or event.remove_edges):
            # explicit-edge fast path: splice the CSR arrays and migrate
            # the dense state without a decode/encode round trip
            graph = self.graph.with_updates(
                add_edges=event.add_edges, remove_edges=event.remove_edges
            )
            self.kernel.drop_removed_links(
                self.state, [(index[u], index[v]) for u, v in event.remove_edges]
            )
            self._rebuild(graph)
            sites = tuple(
                sorted(edge_fault_sites((*event.add_edges, *event.remove_edges)))
            )
        else:
            # rare structural events: decode, shared runtime, re-encode
            before = self.state
            graph, config, sites = self.runtime.apply(
                self.protocol, self.graph, self.kernel.decode(before), event, gen
            )
            self._rebuild(graph)
            self.state = self.kernel.encode(config)
            if self.state.shape != before.shape:  # the node set changed
                self._dirty = None
                return sites
            # message_loss rewrites the victims' neighbours, not the sites
            changed = np.flatnonzero(self.state != before)
        self._seed_dirty(sites, changed)
        return sites

    def _rebuild(self, graph: Graph) -> None:
        if graph is not self.graph:
            self.graph = graph
            self.kernel = self.kernel_cls(graph)

    def _seed_dirty(self, sites, changed) -> None:
        if self._dirty is None:  # everything is dirty already
            return
        index = self.graph.dense_index()
        rows = np.union1d(
            np.fromiter((index[s] for s in sites), dtype=np.int64, count=len(sites)),
            np.asarray(changed, dtype=np.int64),
        )
        seed = closed_neighborhood(self.kernel._indptr, self.kernel._indices, rows)
        if not self._settled:
            seed = np.union1d(seed, np.asarray(self._dirty, dtype=np.int64))
        self._dirty = seed


def run_vector_campaign(
    kernel_cls,
    protocol,
    graph: Graph,
    config=None,
    *,
    fault_plan: FaultPlan,
    max_rounds: Optional[int] = None,
    raise_on_timeout: bool = False,
):
    """Run a fault campaign on the frontier kernel ``kernel_cls``.

    The shared engine adapter (:func:`repro.engine.adapter.run_kernel`)
    delegates here when ``fault_plan`` is given.  Campaigns always
    collect telemetry, census included; the adapter's ``encode``
    validates the start configuration.
    """
    from repro.core.executor import _as_configuration, _default_round_budget
    from repro.engine.result import RunResult
    from repro.errors import StabilizationTimeout

    initial = _as_configuration(protocol, graph, config)
    budget = max_rounds if max_rounds is not None else _default_round_budget(graph)
    adapter = VectorAdapter(protocol, graph, initial, kernel_cls, census=True)
    summary, tele = drive_campaign(
        protocol, adapter, fault_plan, budget=budget, backend="vectorized"
    )
    result = RunResult(
        protocol_name=protocol.name,
        daemon="synchronous",
        stabilized=summary["stabilized"],
        rounds=summary["rounds"],
        moves=summary["moves"],
        moves_by_rule=summary["moves_by_rule"],
        initial=initial,
        final=summary["final"],
        legitimate=summary["legitimate"],
        backend="vectorized",
        telemetry=tele,
    )
    if raise_on_timeout and not result.stabilized:
        raise StabilizationTimeout(
            f"{protocol.name} exceeded {budget} synchronous rounds "
            f"(fault campaign)",
            result,
        )
    return result
