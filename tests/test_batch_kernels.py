"""Equivalence tests: batch kernels vs single-run kernels vs reference."""

import numpy as np
import pytest

from repro.core.executor import run_synchronous
from repro.core.faults import random_configuration
from repro.errors import StabilizationTimeout
from repro.graphs.generators import cycle_graph, erdos_renyi_graph, path_graph
from repro.matching.smm import SynchronousMaximalMatching
from repro.matching.smm_batch import BatchSMM
from repro.matching.smm_vectorized import VectorizedSMM
from repro.mis.sis import SynchronousMaximalIndependentSet
from repro.mis.sis_batch import BatchSIS
from repro.mis.sis_vectorized import VectorizedSIS

SMM = SynchronousMaximalMatching()
SIS = SynchronousMaximalIndependentSet()


def random_configs(protocol, graph, k, seed):
    rng = np.random.default_rng(seed)
    return [random_configuration(protocol, graph, rng) for _ in range(k)]


class TestBatchSMM:
    def test_step_matches_single_kernel(self, rng):
        g = erdos_renyi_graph(20, 0.2, rng=3)
        batch = BatchSMM(g)
        single = VectorizedSMM(g)
        configs = random_configs(SMM, g, 8, seed=1)
        ptrs = batch.encode_batch(configs)
        for _ in range(5):
            stepped, _ = batch.step_batch(ptrs)
            for i in range(len(configs)):
                expected = single.step(ptrs[i][None])[0][0]
                assert np.array_equal(stepped[i], expected)
            ptrs = stepped

    def test_run_matches_reference_rounds_and_finals(self):
        g = erdos_renyi_graph(18, 0.2, rng=5)
        configs = random_configs(SMM, g, 10, seed=2)
        batch = BatchSMM(g)
        result = batch.run_batch(configs)
        assert result.all_stabilized
        for i, cfg in enumerate(configs):
            ref = run_synchronous(SMM, g, cfg)
            assert int(result.rounds[i]) == ref.rounds
            assert batch.single.decode(result.final_ptr[i]) == ref.final

    def test_mixed_batch_freezes_stable_rows(self):
        g = path_graph(8)
        stable = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6}
        fresh = {i: None for i in range(8)}
        batch = BatchSMM(g)
        result = batch.run_batch([stable, fresh])
        assert result.all_stabilized
        assert int(result.rounds[0]) == 0
        assert int(result.rounds[1]) > 0
        assert batch.single.decode(result.final_ptr[0]) == stable

    def test_theorem_bound_over_large_batch(self):
        g = cycle_graph(32)
        configs = random_configs(SMM, g, 50, seed=3)
        result = BatchSMM(g).run_batch(configs)
        assert result.all_stabilized
        assert result.max_rounds() <= g.n + 1

    def test_timeout_raises(self):
        from repro.matching.adversarial import pessimal_cycle

        g = cycle_graph(16)
        with pytest.raises(StabilizationTimeout):
            BatchSMM(g).run_batch([pessimal_cycle(g)], max_rounds=2,
                                  raise_on_timeout=True)

    def test_accepts_matrix_input(self):
        g = path_graph(6)
        ptrs = np.full((3, 6), -1, dtype=np.int64)
        result = BatchSMM(g).run_batch(ptrs)
        assert result.all_stabilized


class TestBatchSIS:
    def test_step_matches_single_kernel(self):
        g = erdos_renyi_graph(20, 0.2, rng=3)
        batch = BatchSIS(g)
        single = VectorizedSIS(g)
        configs = random_configs(SIS, g, 8, seed=1)
        xs = batch.encode_batch(configs)
        for _ in range(5):
            stepped = batch.step_batch(xs)
            for i in range(len(configs)):
                assert np.array_equal(stepped[i], single.step(xs[i][None])[0])
            xs = stepped

    def test_run_matches_reference(self):
        g = erdos_renyi_graph(18, 0.2, rng=5)
        configs = random_configs(SIS, g, 10, seed=2)
        batch = BatchSIS(g)
        result = batch.run_batch(configs)
        assert result.all_stabilized
        for i, cfg in enumerate(configs):
            ref = run_synchronous(SIS, g, cfg)
            assert int(result.rounds[i]) == ref.rounds
            assert batch.single.decode(result.final_x[i]) == ref.final

    def test_all_rows_land_on_unique_fixpoint(self):
        g = cycle_graph(20)
        configs = random_configs(SIS, g, 30, seed=7)
        result = BatchSIS(g).run_batch(configs)
        assert result.all_stabilized
        finals = {result.final_x[i].tobytes() for i in range(30)}
        assert len(finals) == 1  # unique stable configuration

    def test_exhaustive_small_graph_batch(self):
        """All 256 configurations of C_8 as one batch."""
        from repro.experiments.common import exhaustive_configurations

        g = cycle_graph(8)
        configs = list(exhaustive_configurations(SIS, g))
        result = BatchSIS(g).run_batch(configs)
        assert result.all_stabilized
        assert result.max_rounds() <= g.n

    def test_timeout_flagged(self):
        g = path_graph(16)
        result = BatchSIS(g).run_batch([{i: 0 for i in g.nodes}], max_rounds=2)
        assert not result.all_stabilized
