"""Property tests of the SMM round kernel's edge cases.

:meth:`VectorizedSMM.step` (a reverse-pointer scatter for R1, CSR rows
of the null nodes without a proposer for R2) is compared round by round
with the whole-entry oracle ``_csr_step_oracle`` of
``test_smm_step_oracle.py`` on hypothesis graphs with isolated nodes
(the top ids too), no edges, n = 1 and non-contiguous ids, for k ∈ {1, 3}
rows in both state dtypes.  The census is checked against the dict
classification, and raw arrays that break the kernel invariant (a self
or non-edge pointer) must be rejected.
"""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.matching.smm_vectorized as smm_vectorized
from repro.errors import InvalidConfigurationError
from repro.graphs.graph import Graph
from repro.kernels import SMM_NULL
from repro.matching.smm_batch import BatchSMM
from repro.matching.smm_vectorized import VectorizedSMM
from repro.observability.telemetry import census_of
from test_smm_step_oracle import _assert_same_round


@st.composite
def _graphs(draw):
    """Graphs on sorted, non-contiguous ids: random edges (possibly
    none) over ``n`` ids, plus up to two isolated nodes above them."""
    n = draw(st.integers(1, 9))
    ids = sorted(draw(st.sets(st.integers(0, 60), min_size=n, max_size=n)))
    pairs = list(itertools.combinations(ids, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    tail = draw(st.integers(0, 2))
    return Graph(ids + [ids[-1] + 1 + t for t in range(tail)], edges)


@st.composite
def _graph_and_starts(draw, k):
    graph = draw(_graphs())
    indptr, indices, _ = graph.adjacency_arrays()
    rows = [
        [
            draw(st.sampled_from([SMM_NULL, *indices[indptr[i]:indptr[i + 1]].tolist()]))
            for i in range(graph.n)
        ]
        for _ in range(k)
    ]
    return graph, np.array(rows, dtype=np.int64).reshape(k, graph.n)


def _kernel(graph, dtype):
    """A kernel whose state dtype (packed indices, row owners and all)
    is ``dtype``."""
    with mock.patch.object(smm_vectorized, "state_dtype", lambda n: np.dtype(dtype)):
        return VectorizedSMM(graph)


class TestStepProperties:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("k", [1, 3])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_step_matches_oracle_every_round(self, dtype, k, data):
        graph, starts = data.draw(_graph_and_starts(k))
        kernel = _kernel(graph, dtype)
        assert kernel._indices.dtype == dtype
        ptrs = starts.astype(dtype)
        for _ in range(graph.n + 2):
            for row in ptrs:
                assert kernel.census(row) == census_of(graph, kernel.decode(row))
            new_ptrs, r1, r2, r3 = _assert_same_round(kernel, ptrs)
            if not (r1 | r2 | r3).any():
                break
            ptrs = new_ptrs
        assert all(kernel.legitimate(row) for row in ptrs)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_raw_array_off_the_edges_is_rejected(self, data):
        graph, starts = data.draw(_graph_and_starts(3))
        n = graph.n
        row = data.draw(st.integers(0, 2))
        i = data.draw(st.integers(0, n - 1))
        indptr, indices, _ = graph.adjacency_arrays()
        neighbours = set(indices[indptr[i]:indptr[i + 1]].tolist())
        off = [j for j in range(n) if j != i and j not in neighbours]
        starts[row, i] = data.draw(st.sampled_from([i, -2, n, *off]))
        with pytest.raises(InvalidConfigurationError):
            VectorizedSMM(graph).run(starts[row])
        with pytest.raises(InvalidConfigurationError):
            BatchSMM(graph).run_batch(starts)


class TestRawArrays:
    def test_self_pointer_is_rejected(self):
        graph = Graph(range(3), [(0, 1), (1, 2)])
        with pytest.raises(InvalidConfigurationError, match="node 1"):
            VectorizedSMM(graph).run(np.array([-1, 1, -1]))
        with pytest.raises(InvalidConfigurationError, match="row 1, node 1"):
            BatchSMM(graph).run_batch(np.array([[1, 0, -1], [-1, 1, -1]]))

    def test_non_edge_pointer_is_rejected(self):
        graph = Graph([10, 20, 30], [(10, 20), (20, 30)])
        with pytest.raises(InvalidConfigurationError, match="pointer 30"):
            VectorizedSMM(graph).run(np.array([2, -1, -1]))
        with pytest.raises(InvalidConfigurationError):
            BatchSMM(graph).run_batch(np.array([[2, -1, -1]]))

    def test_edge_pointers_run(self):
        graph = Graph(range(3), [(0, 1), (1, 2)])
        res = VectorizedSMM(graph).run(np.array([1, 2, 1]))
        assert res.stabilized
        assert VectorizedSMM(graph).legitimate(res.final_ptr)
