"""The SMM round kernel against its whole-entry predecessor.

:meth:`VectorizedSMM.step` finds R1's minimum proposer by scattering
every non-null pointer onto its target and reads CSR rows only for the
null nodes without a proposer (R2).  ``_csr_step_oracle`` below is the
formulation it replaced, kept verbatim: two ``np.where`` +
``segment_min`` passes over all 2m CSR entries per round.  The two must
agree bit for bit on every state that satisfies the kernel invariant
(every non-null pointer is an edge), which ``encode`` and ``admit``
enforce where a state enters the kernel.

This file steps every labelled graph on n ≤ 4 nodes from every start,
plus a seeded sample of 64 graphs on n = 5, round by round as ``(k, n)``
batches through :class:`BatchSMM`.  The edge cases, the census and the
rejection of raw arrays that break the invariant are property-tested in
``test_smm_step_properties.py``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.graphs.graph import Graph
from repro.kernels import SMM_NULL, segment_min
from repro.matching.smm_batch import BatchSMM


def _csr_step_oracle(self, ptrs):
    """The whole-entry ``(k, n)`` round, as ``VectorizedSMM.step`` was
    written before the reverse-pointer scatter (``self`` is the kernel)."""
    k, n = ptrs.shape
    indices = self._indices
    sentinel = n  # acts as +inf for segmented minima

    is_null = ptrs < 0
    # pointer of each CSR entry (np.take beats fancy indexing ~2x)
    neighbor_ptr = np.take(ptrs, indices, axis=1)
    # min proposer per node: neighbours j with ptr[j] == me
    vals = np.where(neighbor_ptr == self._row, indices, sentinel)
    min_proposer = segment_min(vals, self._indptr, sentinel)
    # min null neighbour per node
    vals = np.where(neighbor_ptr < 0, indices, sentinel)
    min_null = segment_min(vals, self._indptr, sentinel)
    has_proposer = min_proposer < sentinel

    r1 = is_null & has_proposer
    r2 = is_null & ~has_proposer & (min_null < sentinel)

    # R3: i -> j, j -> k with k not in {null, i}; the target's
    # pointer is a flat take (row r's entries start at r * n)
    safe_target = np.where(is_null, 0, ptrs)  # masked below
    if k > 1:
        safe_target += (np.arange(k, dtype=ptrs.dtype) * n)[:, None]
    target_ptr = np.take(ptrs, safe_target)
    r3 = (~is_null) & (target_ptr >= 0) & (target_ptr != self._arange)

    new_ptrs = ptrs.copy()
    new_ptrs[r1] = min_proposer[r1]
    new_ptrs[r2] = min_null[r2]
    new_ptrs[r3] = SMM_NULL
    return new_ptrs, r1, r2, r3


def _assert_same_round(kernel, ptrs):
    """Step ``ptrs`` both ways; return the kernel's round."""
    got = kernel.step(ptrs)
    want = _csr_step_oracle(kernel, ptrs)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    return got


def _labelled_graph(n, mask):
    """The graph on ``0..n-1`` whose edges are the set bits of ``mask``
    over the pairs in lexicographic order."""
    pairs = list(itertools.combinations(range(n), 2))
    return Graph(range(n), [p for b, p in enumerate(pairs) if mask >> b & 1])


def _every_start(graph):
    """Every SMM configuration of ``graph`` as a dense ``(k, n)`` matrix."""
    indptr, indices, _ = graph.adjacency_arrays()
    options = [
        [SMM_NULL, *indices[indptr[i]:indptr[i + 1]].tolist()]
        for i in range(graph.n)
    ]
    return np.array(list(itertools.product(*options)), dtype=np.int32)


def _check_every_start(graph):
    """Step every start of ``graph`` to its fixpoint in one batch,
    round by round against the oracle; returns the number of runs."""
    n = graph.n
    batch = BatchSMM(graph)
    kernel = batch.single
    starts = _every_start(graph)
    ptrs = starts.copy()
    rounds = np.zeros(len(starts), dtype=np.int64)
    for _ in range(n + 2):
        new_ptrs, r1, r2, r3 = _assert_same_round(kernel, ptrs)
        moved = (r1 | r2 | r3).any(axis=1)
        if not moved.any():
            break
        rounds += moved
        ptrs = new_ptrs
    assert rounds.max() <= n + 1  # Theorem 1: stabilized within n+1 rounds
    res = batch.run_batch(starts)
    assert res.all_stabilized
    assert np.array_equal(res.rounds, rounds)
    assert np.array_equal(res.final_ptr, ptrs)
    # a few distinct maximal matchings cover thousands of runs
    assert all(kernel.legitimate(row) for row in np.unique(ptrs, axis=0))
    return len(starts)


class TestExhaustive:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_labelled_graph_from_every_start(self, n):
        runs = sum(
            _check_every_start(_labelled_graph(n, mask))
            for mask in range(2 ** (n * (n - 1) // 2))
        )
        assert runs == {1: 1, 2: 5, 3: 76, 4: 3112}[n]

    def test_seeded_sample_on_five_nodes(self):
        masks = np.random.default_rng(20031).choice(2**10, 64, replace=False)
        assert sum(_check_every_start(_labelled_graph(5, int(m))) for m in masks)
