"""Equivalence tests: vectorized SIS kernel vs the reference engine."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.executor import run_synchronous
from repro.core.faults import random_configuration
from repro.errors import StabilizationTimeout
from repro.graphs.generators import cycle_graph, erdos_renyi_graph, path_graph
from repro.graphs.graph import Graph
from repro.graphs.properties import (
    greedy_mis_by_descending_id,
    is_maximal_independent_set,
)
from repro.mis.sis import SynchronousMaximalIndependentSet
from repro.mis.sis_vectorized import VectorizedSIS

from conftest import graphs_with_bits

SIS = SynchronousMaximalIndependentSet()


class TestEncoding:
    def test_roundtrip(self):
        g = cycle_graph(5)
        vec = VectorizedSIS(g)
        cfg = {0: 1, 1: 0, 2: 1, 3: 0, 4: 0}
        assert vec.decode(vec.encode(cfg)) == cfg

    def test_non_contiguous_ids(self):
        g = Graph([7, 3, 9], [(3, 7), (7, 9)])
        vec = VectorizedSIS(g)
        cfg = {3: 1, 7: 0, 9: 1}
        assert vec.decode(vec.encode(cfg)) == cfg


class TestStepEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(graphs_with_bits(min_n=2, max_n=10))
    def test_round_by_round(self, graph_and_config):
        g, cfg = graph_and_config
        vec = VectorizedSIS(g)
        ref = run_synchronous(SIS, g, cfg, record_history=True)
        x = vec.encode(cfg)
        for expected in ref.history[1:]:
            x = vec.step(x[None])[0]
            assert vec.decode(x) == expected

    def test_id_comparison_uses_ids_not_indices(self):
        """With non-contiguous ids the 'bigger' relation must compare
        ids, not dense indices (they coincide only for 0..n-1)."""
        g = Graph([5, 17, 40], [(5, 17), (17, 40)])
        vec = VectorizedSIS(g)
        res = vec.run({5: 0, 17: 0, 40: 0})
        assert vec.independent_set(res.final_x) == greedy_mis_by_descending_id(g)


class TestRun:
    def test_rounds_match_reference(self, rng):
        g = erdos_renyi_graph(30, 0.15, rng=2)
        cfg = random_configuration(SIS, g, rng)
        ref = run_synchronous(SIS, g, cfg)
        res = VectorizedSIS(g).run(cfg)
        assert res.stabilized
        assert res.rounds == ref.rounds
        assert res.moves == ref.moves
        assert res.moves_by_rule == ref.moves_by_rule

    def test_theorem_bound_large(self):
        g = erdos_renyi_graph(500, 0.015, rng=7)
        res = VectorizedSIS(g).run()
        assert res.stabilized and res.rounds <= g.n

    def test_final_set_is_greedy_mis(self, rng):
        g = erdos_renyi_graph(60, 0.1, rng=4)
        vec = VectorizedSIS(g)
        res = vec.run(random_configuration(SIS, g, rng))
        s = vec.independent_set(res.final_x)
        assert s == greedy_mis_by_descending_id(g)
        assert is_maximal_independent_set(g, s)

    def test_path_cascade_linear(self):
        g = path_graph(64)
        res = VectorizedSIS(g).run()
        assert res.stabilized and res.rounds >= 62

    def test_accepts_dense_array(self):
        g = path_graph(6)
        res = VectorizedSIS(g).run(np.zeros(6, dtype=np.int8))
        assert res.stabilized

    def test_timeout(self):
        g = path_graph(8)
        res = VectorizedSIS(g).run(max_rounds=0)
        assert not res.stabilized
        with pytest.raises(StabilizationTimeout):
            VectorizedSIS(g).run(max_rounds=0, raise_on_timeout=True)

    def test_stable_input_zero_rounds(self):
        g = path_graph(4)
        res = VectorizedSIS(g).run({0: 0, 1: 1, 2: 0, 3: 1})
        assert res.stabilized and res.rounds == 0
