"""Equivalence tests: vectorized SMM kernel vs the reference engine."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.executor import run_synchronous
from repro.core.faults import random_configuration
from repro.errors import InvalidConfigurationError, StabilizationTimeout
from repro.graphs.generators import cycle_graph, erdos_renyi_graph, path_graph
from repro.graphs.graph import Graph
from repro.graphs.properties import is_maximal_matching
from repro.matching.smm import SynchronousMaximalMatching
from repro.matching.smm_vectorized import VectorizedSMM

from conftest import graphs_with_pointers

SMM = SynchronousMaximalMatching()


class TestEncoding:
    def test_roundtrip(self):
        g = cycle_graph(5)
        vec = VectorizedSMM(g)
        cfg = {0: 1, 1: 0, 2: None, 3: 4, 4: 3}
        assert vec.decode(vec.encode(cfg)) == cfg

    def test_non_contiguous_ids(self):
        g = Graph([10, 20, 30], [(10, 20), (20, 30)])
        vec = VectorizedSMM(g)
        cfg = {10: 20, 20: 10, 30: None}
        assert vec.decode(vec.encode(cfg)) == cfg

    def test_bad_pointer_rejected(self):
        g = cycle_graph(4)
        vec = VectorizedSMM(g)
        with pytest.raises(InvalidConfigurationError):
            vec.encode({0: 99, 1: None, 2: None, 3: None})


class TestStepEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(graphs_with_pointers(min_n=2, max_n=10))
    def test_round_by_round(self, graph_and_config):
        g, cfg = graph_and_config
        vec = VectorizedSMM(g)
        ref = run_synchronous(SMM, g, cfg, record_history=True)
        ptr = vec.encode(cfg)
        for expected in ref.history[1:]:
            ptr = vec.step(ptr[None])[0][0]
            assert vec.decode(ptr) == expected

    def test_larger_random_graphs(self, rng):
        for seed in range(5):
            g = erdos_renyi_graph(40, 0.1, rng=seed)
            cfg = random_configuration(SMM, g, rng)
            ref = run_synchronous(SMM, g, cfg, record_history=True)
            vec = VectorizedSMM(g)
            ptr = vec.encode(cfg)
            for expected in ref.history[1:]:
                ptr = vec.step(ptr[None])[0][0]
            assert vec.decode(ptr) == ref.final


class TestRun:
    def test_rounds_match_reference(self, rng):
        g = erdos_renyi_graph(30, 0.15, rng=2)
        cfg = random_configuration(SMM, g, rng)
        ref = run_synchronous(SMM, g, cfg)
        res = VectorizedSMM(g).run(cfg)
        assert res.stabilized
        assert res.rounds == ref.rounds
        assert res.moves == ref.moves
        assert res.moves_by_rule == ref.moves_by_rule

    def test_theorem_bound_large(self):
        g = erdos_renyi_graph(400, 0.02, rng=7)
        res = VectorizedSMM(g).run()
        assert res.stabilized and res.rounds <= g.n + 1

    def test_matching_extraction_maximal(self, rng):
        g = erdos_renyi_graph(50, 0.1, rng=4)
        vec = VectorizedSMM(g)
        res = vec.run(random_configuration(SMM, g, rng))
        m = vec.matching(res.final_ptr)
        assert is_maximal_matching(g, m)

    def test_accepts_dense_array_input(self):
        g = path_graph(6)
        vec = VectorizedSMM(g)
        ptr = np.full(6, -1, dtype=np.int64)
        res = vec.run(ptr)
        assert res.stabilized

    def test_timeout_flag(self):
        g = path_graph(8)
        res = VectorizedSMM(g).run(max_rounds=0)
        assert not res.stabilized

    def test_timeout_raise(self):
        g = path_graph(8)
        with pytest.raises(StabilizationTimeout):
            VectorizedSMM(g).run(max_rounds=0, raise_on_timeout=True)

    def test_stable_input_zero_rounds(self):
        g = path_graph(4)
        vec = VectorizedSMM(g)
        res = vec.run({0: 1, 1: 0, 2: 3, 3: 2})
        assert res.stabilized and res.rounds == 0
