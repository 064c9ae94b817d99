"""Vectorized SMM synchronous rounds (NumPy kernel).

The reference engine (:mod:`repro.core.executor`) builds per-node view
objects each round — ideal for clarity, monitors and rule accounting,
but Python-loop bound.  Following the optimization workflow of the HPC
guides (make it work, make it right, then vectorize the measured hot
loop), this module re-implements exactly one thing — the SMM
synchronous round with min-id choosers — as array operations over a
CSR adjacency, for the large-``n`` scaling benchmarks (experiment E10).

Pointer encoding: ``ptr[k] ∈ {SMM_NULL} ∪ {0..n-1}`` over *dense* node
indices (``SMM_NULL = -1`` is the explicit null sentinel).
:func:`repro.graphs.graph.Graph.adjacency_arrays` guarantees dense index
order equals id order, so "minimum dense index" below is "minimum id",
matching rules R1/R2 of the reference protocol.

State layout: pointer arrays are packed to the narrowest dtype that fits
``n`` plus the segmented-minimum sentinel (int32 for every practical
graph — see :func:`repro.kernels.state_dtype`), and per-row reductions
run on ``ufunc.reduceat`` over contiguous CSR segments instead of the
slow buffered ``ufunc.at`` scatter.  The kernel has one full-array round
function, :meth:`VectorizedSMM.step`, in ``(k, n)`` form (the batch
kernel steps ``k`` runs through it; single runs pass a ``(1, n)`` view),
plus the gather and scalar decisions the frontier driver
(:class:`repro.kernels.FrontierKernel`) picks for small dirty sets.

Equivalence with the reference engine is pinned by
``tests/test_smm_vectorized.py`` on random graphs and random initial
configurations, round by round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core.configuration import Configuration
from repro.engine.adapter import telemetry_run  # noqa: F401  (module API)
from repro.graphs.graph import Graph
from repro.kernels import (
    SMM_NULL,
    FrontierKernel,
    csr_entry_positions,
    csr_rows,
    segment_any,
    segment_min,
    smm_dense_pointers,
    smm_pointer_ok,
    state_dtype,
)
from repro.matching.smm import SynchronousMaximalMatching
from repro.types import NodeId


@dataclass
class VectorResult:
    """Summary of a vectorized run (mirrors the fields experiments read
    from :class:`repro.core.executor.Execution`)."""

    stabilized: bool
    rounds: int
    moves: int
    moves_by_rule: Dict[str, int]
    final_ptr: np.ndarray  # dense pointer array, SMM_NULL = null

    @property
    def final_state(self) -> np.ndarray:
        return self.final_ptr


class VectorizedSMM(FrontierKernel):
    """SMM rounds as NumPy array operations over one fixed graph."""

    PROTOCOL = SynchronousMaximalMatching
    RULES = ("R1", "R2", "R3")
    CLEAN = SMM_NULL
    Result = VectorResult
    _lookup = None

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph, state_dtype(graph.n))
        # state-dtype CSR entries and their row owners, memoised on the
        # graph (no per-run or per-round allocation for them)
        indices, dtype = self._indices, self._dtype
        self._indices = graph.memo(
            ("indices", dtype.str), lambda: indices.astype(dtype, copy=False)
        )
        self._row = csr_rows(graph, dtype)
        self._arange = np.arange(self.n, dtype=self._dtype)

    # ------------------------------------------------------------------
    # the run boundary
    # ------------------------------------------------------------------
    def pointer_ok(self, ptr: np.ndarray) -> np.ndarray:
        """``ok[i]``: ``ptr[i]`` is a neighbour of ``i``
        (:func:`repro.kernels.smm_pointer_ok`)."""
        return smm_pointer_ok(self._indices, self._row, ptr)

    def encode(self, config) -> np.ndarray:
        """Dense pointer array from a ``{node: Pointer}`` mapping,
        validated on the way: the domain must be the node set and every
        pointer null or a neighbour, else the protocol's own
        :class:`~repro.errors.InvalidConfigurationError` is raised."""
        ptr = smm_dense_pointers(self.graph, config)
        if ptr is None or ((ptr != SMM_NULL) & ~self.pointer_ok(ptr)).any():
            self._reject(config)
        return ptr.astype(self._dtype)

    def decode(self, ptr: np.ndarray) -> Configuration:
        """``{node: Pointer}`` configuration from a dense pointer array."""
        if self._lookup is None:
            # target id per dense index, with None last: SMM_NULL = -1
            # indexes it
            self._lookup = np.array([*self.graph.nodes, None], dtype=object)
        return self._decode(self._lookup[ptr].tolist())

    def legitimate(self, ptr: np.ndarray) -> bool:
        """Lemma 8 on the dense array — equal to
        :meth:`SynchronousMaximalMatching.is_legitimate` of the decoded
        configuration: every non-null pointer is reciprocated along an
        edge (so the matched pairs are a matching of the graph and every
        unmatched node is null), and no edge joins two null nodes
        (maximality)."""
        pointing = ptr >= 0
        target = np.where(pointing, ptr, 0)
        matched = pointing & (ptr[target] == self._arange) & self.pointer_ok(ptr)
        if (pointing & ~matched).any():
            return False
        return not (~pointing[self._row] & ~pointing[self._indices]).any()

    # ------------------------------------------------------------------
    # the round kernel
    # ------------------------------------------------------------------
    def step(
        self, ptrs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One synchronous round for every row of a ``(k, n)`` pointer
        matrix.

        Returns ``(new_ptrs, r1, r2, r3)``: the stepped matrix and the
        ``(k, n)`` masks of the nodes that fired each rule.
        """
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

    def _full_round(self, ptr: np.ndarray):
        new_ptrs, r1, r2, r3 = self.step(ptr[None])
        movers = np.flatnonzero(r1 | r2 | r3)
        counts = {"R1": int(r1.sum()), "R2": int(r2.sum()), "R3": int(r3.sum())}
        return movers, new_ptrs[0, movers], counts

    # ------------------------------------------------------------------
    # frontier decisions
    # ------------------------------------------------------------------
    def _frontier_sound(self, ptr: np.ndarray) -> bool:
        """Whether every non-null pointer targets a neighbour.

        Frontier stepping propagates dirtiness through closed
        neighbourhoods, which is only sound when decisions depend on
        neighbourhood state alone — i.e. when pointers stay within
        ``N(i)``.  Valid SMM states satisfy this and the rules preserve
        it, so one check of the initial array suffices; raw dense input
        with non-neighbour pointers runs full scans instead.
        """
        return not ((ptr >= 0) & ~self.pointer_ok(ptr)).any()

    def _gather_round(self, ptr: np.ndarray, rows: np.ndarray):
        """The decisions of ``rows`` against ``ptr``, from their CSR
        entries only."""
        sentinel = self.n
        positions, counts = csr_entry_positions(self._indptr, rows)
        cols = self._indices[positions]
        owner = np.repeat(rows, counts)
        seg = np.concatenate(([0], np.cumsum(counts)))

        ptr_rows = ptr[rows]
        is_null = ptr_rows < 0
        neighbor_ptr = ptr[cols]

        vals = np.where(neighbor_ptr == owner, cols, sentinel)
        min_proposer = segment_min(vals, seg, sentinel)
        has_proposer = min_proposer < sentinel

        vals2 = np.where(neighbor_ptr < 0, cols, sentinel)
        min_null = segment_min(vals2, seg, sentinel)

        r1 = is_null & has_proposer
        r2 = is_null & ~has_proposer & (min_null < sentinel)
        target = np.where(is_null, 0, ptr_rows)
        target_ptr = ptr[target]
        r3 = (~is_null) & (target_ptr >= 0) & (target_ptr != rows)

        fired = r1 | r2 | r3
        val = np.where(r1, min_proposer, np.where(r2, min_null, SMM_NULL))
        counts = {"R1": int(r1.sum()), "R2": int(r2.sum()), "R3": int(r3.sum())}
        return rows[fired], val[fired], counts

    def _scalar_round(self, ptr: np.ndarray, rows: List[int]):
        """Pure-Python decisions for a tiny frontier.  CSR rows ascend,
        so the first proposer / null neighbour found scanning a row is
        the minimum-id one."""
        neighbors = self._neighbors
        movers: List[int] = []
        vals: List[int] = []
        c1 = c2 = c3 = 0
        for i in rows:
            p = int(ptr[i])
            if p < 0:
                proposer = -1
                null_nbr = -1
                for j in neighbors(i):
                    q = int(ptr[j])
                    if q == i:
                        proposer = j
                        break
                    if q < 0 and null_nbr < 0:
                        null_nbr = j
                if proposer >= 0:
                    movers.append(i)
                    vals.append(proposer)
                    c1 += 1
                elif null_nbr >= 0:
                    movers.append(i)
                    vals.append(null_nbr)
                    c2 += 1
            else:
                q = int(ptr[p])
                if q >= 0 and q != i:
                    movers.append(i)
                    vals.append(SMM_NULL)
                    c3 += 1
        return movers, vals, {"R1": c1, "R2": c2, "R3": c3}

    # ------------------------------------------------------------------
    # fault hooks (repro.resilience.vector)
    # ------------------------------------------------------------------
    def perturb_node(self, ptr: np.ndarray, k: int, gen) -> None:
        """Redraw node ``k``'s pointer, draw for draw like
        :meth:`SynchronousMaximalMatching.random_state`: the option list
        is ``[None, *neighbors]`` and one ``integers(deg + 1)`` draw
        picks from it; CSR rows share the neighbour order."""
        start, stop = int(self._indptr[k]), int(self._indptr[k + 1])
        j = int(gen.integers(stop - start + 1))
        ptr[k] = SMM_NULL if j == 0 else int(self._indices[start + j - 1])

    @staticmethod
    def drop_removed_links(ptr: np.ndarray, pairs) -> None:
        """Migrate ``ptr`` across the removal of the dense-index edges
        ``pairs``, like ``sanitize_state``: a valid pointer only turns
        invalid when its own link is removed, so resetting the endpoints
        of removed edges equals the full ``migrate_configuration``
        sweep."""
        for ku, kv in pairs:
            if ptr[ku] == kv:
                ptr[ku] = SMM_NULL
            if ptr[kv] == ku:
                ptr[kv] = SMM_NULL

    # ------------------------------------------------------------------
    def census(self, ptr: np.ndarray) -> Dict[str, int]:
        """Fig. 2 node-type histogram of a dense pointer array.

        Keys are the string values of
        :class:`repro.matching.classification.NodeType` in enum order;
        counts equal ``type_counts`` on the decoded configuration
        (pinned by the telemetry equivalence tests).
        """
        is_null = ptr < 0
        safe = np.where(is_null, 0, ptr)  # masked below
        matched = (~is_null) & (ptr[safe] == self._arange)
        has_suitor = segment_any(
            ptr[self._indices] == self._row, self._indptr
        )
        pointing = (~is_null) & ~matched
        return {
            "M": int(matched.sum()),
            "A0": int((is_null & ~has_suitor).sum()),
            "A1": int((is_null & has_suitor).sum()),
            "PA": int((pointing & is_null[safe]).sum()),
            "PM": int((pointing & matched[safe]).sum()),
            "PP": int(
                (pointing & ~matched[safe] & ~is_null[safe]).sum()
            ),
        }

    def potential(self, ptr: np.ndarray) -> int:
        """The SMM variant function Φ of a dense pointer array
        (:mod:`repro.observability.convergence`): ``(2n+1)`` per
        unmatched node plus the weighted Fig. 2 class sum — O(m) array
        work via :meth:`census`, equal to the direct classification of
        the decoded configuration (pinned by the observatory tests)."""
        from repro.observability.convergence import (
            smm_potential_from_census,
        )

        return smm_potential_from_census(self.census(ptr), self.n)

    def matching(self, ptr: np.ndarray) -> frozenset[tuple[NodeId, NodeId]]:
        """Extract matched edges (reciprocated pointers) from a dense
        pointer array, in node ids."""
        out = set()
        targets = ptr
        for k in range(self.n):
            t = int(targets[k])
            if t >= 0 and int(targets[t]) == k and k < t:
                out.add((int(self._ids[k]), int(self._ids[t])))
        return frozenset(out)
