"""The shared frontier driver (:meth:`repro.kernels.FrontierKernel.drive`).

Two properties the fault campaigns, streams and telemetry lean on:

* **seeded soundness** — any dirty seed that contains every enabled node
  steps exactly like a cold start (every node dirty): same final state,
  rounds, stabilization flag and per-rule moves, through every decision
  path (full ``(k, n)`` step, CSR gather, scalar loop);
* **telemetry on the frontier** — a watched run keeps the active-set
  path, so a recovery that moves one or two nodes per round re-evaluates
  a handful of nodes per round instead of all ``n``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.faults import random_configuration
from repro.engine import make_protocol, run
from repro.graphs.generators import erdos_renyi_graph, path_graph
from repro.matching.smm_vectorized import VectorizedSMM
from repro.mis.sis_vectorized import VectorizedSIS

KERNELS = {"smm": VectorizedSMM, "sis": VectorizedSIS}


def _drive(kernel, state, budget, dirty=None):
    moves = dict.fromkeys(kernel.RULES, 0)
    stabilized, rounds, final, _ = kernel.drive(
        state.copy(), budget, moves, dirty=dirty
    )
    return stabilized, rounds, final, moves


@st.composite
def seeded_runs(draw):
    """``(kernel, state, budget, seed)``: a random graph small or large
    enough to reach every decision path, a random or a perturbed
    legitimate state, a budget that sometimes cuts the run short, and a
    dirty seed holding every enabled node plus random extras."""
    key = draw(st.sampled_from(sorted(KERNELS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    small = draw(st.booleans())
    n = int(rng.integers(2, 40)) if small else int(rng.integers(1200, 2400))
    p = min(1.0, float(rng.uniform(0.5, 4.0)) / n)
    graph = erdos_renyi_graph(n, p, rng, connected=False)
    kernel = KERNELS[key](graph)
    protocol = make_protocol(key)
    state = kernel.encode(random_configuration(protocol, graph, rng))
    if draw(st.booleans()):
        # a fault on a legitimate state: small enabled sets
        state = kernel.run(state).final_state
        count = int(rng.integers(1, min(n, 24) + 1))
        for k in rng.choice(n, size=count, replace=False):
            kernel.perturb_node(state, int(k), rng)
    budget = int(rng.integers(0, 6)) if draw(st.booleans()) else n + 8
    enabled = kernel._full_round(state)[0]
    # extras: anything up to every node, or a handful (mid-size seeds
    # reach the CSR-gather path)
    cap = n if draw(st.booleans()) else min(n, 40)
    extra = rng.choice(n, size=int(rng.integers(0, cap + 1)), replace=False)
    seed = np.union1d(enabled, extra).astype(np.int64)
    if draw(st.booleans()):
        seed = seed.tolist()  # the scalar path's sorted-list form
    return kernel, state, budget, seed


class TestSeededSoundness:
    @settings(max_examples=60, deadline=None)
    @given(seeded_runs())
    def test_seed_covering_enabled_nodes_matches_cold_start(self, case):
        kernel, state, budget, seed = case
        cold = _drive(kernel, state, budget)
        seeded = _drive(kernel, state, budget, dirty=seed)
        assert seeded[0] == cold[0]
        assert seeded[1] == cold[1]
        assert np.array_equal(seeded[2], cold[2])
        assert seeded[3] == cold[3]

    @settings(max_examples=30, deadline=None)
    @given(seeded_runs())
    def test_full_scan_matches_frontier(self, case):
        kernel, state, budget, _ = case
        frontier = _drive(kernel, state, budget)
        moves = dict.fromkeys(kernel.RULES, 0)
        stabilized, rounds, final, _ = kernel.drive(
            state.copy(), budget, moves, full_scan=True
        )
        assert (stabilized, rounds, moves) == (
            frontier[0], frontier[1], frontier[3]
        )
        assert np.array_equal(final, frontier[2])


class TestTelemetryOnFrontier:
    def test_sis_path_recovery_reports_small_active_sets(self):
        # SIS's legitimate state on a path is the greedy MIS by
        # descending id; flipping the top id's bit starts an n-round
        # cascade that moves one or two nodes per round
        n = 4096
        graph = path_graph(n)
        config = {v: int((n - 1 - v) % 2 == 0) for v in graph.nodes}
        config[n - 1] = 0
        result = run("sis", graph, config, backend="vectorized", telemetry=True)
        reference = run("sis", graph, config, backend="reference", telemetry=True)
        sizes = result.telemetry.active_set_sizes
        assert result.rounds == reference.rounds > n // 2
        assert sizes[0] == n  # the cold start decides everything once
        assert max(sizes[1:]) <= 8
        assert result.telemetry.per_round_moves == reference.telemetry.per_round_moves
