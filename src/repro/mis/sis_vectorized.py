"""Vectorized SIS synchronous rounds (NumPy kernel).

The whole SIS round collapses to one array expression.  A node's guard
depends only on whether some *larger-id* neighbour is in the set
(``blocked``); inspecting Fig. 4's rules case by case:

===========  =========  ==========================  =========
``x(i)``     blocked?   rule fired                  ``x'(i)``
===========  =========  ==========================  =========
0            no         R1 (enter)                  1
0            yes        —                           0
1            no         —                           1
1            yes        R2 (leave)                  0
===========  =========  ==========================  =========

i.e. ``x' = ¬blocked`` — the new state is independent of the old one.
Stabilization is detected as ``x' == x``; moves split into R1
(``0 -> 1``) and R2 (``1 -> 0``).

State layout: membership is a dense uint8 0/1 array (one byte per
node).  The kernel has one full-array round function,
:meth:`VectorizedSIS.step`, in ``(k, n)`` form (per-row reductions on
``logical_or.reduceat`` over contiguous CSR segments; single runs pass a
``(1, n)`` view), plus the gather and scalar decisions the frontier
driver (:class:`repro.kernels.FrontierKernel`) picks for small dirty
sets.  The scalar loop exploits CSR row order: dense index order equals
id order, so the larger-id neighbours of row ``i`` are exactly the
suffix of entries ``> i``.

Equivalence with the reference engine is pinned by
``tests/test_sis_vectorized.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core.configuration import Configuration
from repro.engine.adapter import telemetry_run  # noqa: F401  (module API)
from repro.graphs.graph import Graph
from repro.kernels import FrontierKernel, csr_entry_positions, segment_any
from repro.types import NodeId


@dataclass
class VectorResult:
    """Summary of a vectorized SIS run."""

    stabilized: bool
    rounds: int
    moves: int
    moves_by_rule: Dict[str, int]
    final_x: np.ndarray  # 0/1 per dense node index

    @property
    def final_state(self) -> np.ndarray:
        return self.final_x


class VectorizedSIS(FrontierKernel):
    """SIS rounds as NumPy array operations over one fixed graph."""

    RULES = ("R1", "R2")
    CLEAN = 0
    Result = VectorResult

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph, np.uint8)
        self._row = np.repeat(
            np.arange(self.n, dtype=np.int64), np.diff(self._indptr)
        )
        # entry mask: neighbour id greater than owner id (precomputable —
        # it depends only on the topology, not the configuration)
        self._bigger_entry = self._ids[self._indices] > self._ids[self._row]

    def encode(self, config) -> np.ndarray:
        x = np.zeros(self.n, dtype=np.uint8)
        for node, value in dict(config).items():
            x[self._id_to_dense[int(node)]] = int(value)
        return x

    def decode(self, x: np.ndarray) -> Configuration:
        return Configuration(
            {int(self._ids[k]): int(x[k]) for k in range(self.n)}
        )

    # ------------------------------------------------------------------
    # the round kernel
    # ------------------------------------------------------------------
    def step(self, xs: np.ndarray) -> np.ndarray:
        """One synchronous round for every row of a ``(k, n)`` state
        matrix: ``x' = ¬(∃ bigger in-set neighbour)``."""
        k, n = xs.shape
        if self._seg_starts is None:  # edgeless graph: nobody is blocked
            return np.ones((k, n), dtype=np.uint8)
        in_set = np.take(xs, self._indices, axis=1) == 1
        in_set_entry = in_set & self._bigger_entry
        blocked = np.logical_or.reduceat(in_set_entry, self._seg_starts, axis=1)
        blocked[:, self._seg_empty] = False
        return (~blocked).astype(np.uint8)

    @staticmethod
    def _moves(movers, vals):
        entered = int(np.count_nonzero(vals))
        return movers, vals, {"R1": entered, "R2": len(movers) - entered}

    def _full_round(self, x: np.ndarray):
        new_x = self.step(x[None])[0]
        movers = np.flatnonzero(new_x != x)
        return self._moves(movers, new_x[movers])

    def enabled_count(self, x: np.ndarray) -> int:
        """The SIS potential: number of rule-enabled nodes.

        ``x' = ¬blocked`` regardless of ``x``, so a node is enabled iff
        one synchronous step would change it — one :meth:`step` worth of
        array work.  Equal to the reference predicate evaluated on the
        decoded configuration (pinned by the observatory tests)."""
        return int((self.step(x[None])[0] != x).sum())

    def independence_violations(self, x: np.ndarray) -> int:
        """Edges with both endpoints in the set (0 for any independent
        set) — one masked CSR pass, each edge seen twice."""
        both = (x[self._indices] == 1) & (x[self._row] == 1)
        return int(both.sum()) // 2

    def domination_violations(self, x: np.ndarray) -> int:
        """Out-of-set nodes with no in-set neighbour (0 for any maximal
        independent set)."""
        has_in_set = segment_any(x[self._indices] == 1, self._indptr)
        return int(((x == 0) & ~has_in_set).sum())

    # ------------------------------------------------------------------
    # frontier decisions
    # ------------------------------------------------------------------
    def _gather_round(self, x: np.ndarray, rows: np.ndarray):
        """Recompute ``x' = ¬blocked`` at ``rows`` only: a node's
        blockedness depends only on its neighbours' states."""
        positions, counts = csr_entry_positions(self._indptr, rows)
        in_set_entry = (x[self._indices[positions]] == 1) & self._bigger_entry[positions]
        seg = np.concatenate(([0], np.cumsum(counts)))
        new_vals = (~segment_any(in_set_entry, seg)).astype(np.uint8)
        changed = new_vals != x[rows]
        return self._moves(rows[changed], new_vals[changed])

    def _scalar_round(self, x: np.ndarray, rows: List[int]):
        """Pure-Python round for a tiny frontier.  Dense index order
        equals id order, so a row's larger-id neighbours are the CSR
        entries ``> i`` — scanned back to front so the first hit
        decides."""
        indptr, indices = self._scalar_csr()
        movers: List[int] = []
        vals: List[int] = []
        c1 = c2 = 0
        for i in rows:
            blocked = False
            for e in range(indptr[i + 1] - 1, indptr[i] - 1, -1):
                j = indices[e]
                if j <= i:
                    break
                if x[j] == 1:
                    blocked = True
                    break
            new = 0 if blocked else 1
            if new != int(x[i]):
                movers.append(i)
                vals.append(new)
                if new == 1:
                    c1 += 1
                else:
                    c2 += 1
        return movers, vals, {"R1": c1, "R2": c2}

    # ------------------------------------------------------------------
    # fault hooks (repro.resilience.vector)
    # ------------------------------------------------------------------
    @staticmethod
    def perturb_node(x: np.ndarray, k: int, gen) -> None:
        """Redraw node ``k``'s bit, draw for draw like
        :meth:`SynchronousMaximalIndependentSet.random_state`."""
        x[k] = int(gen.integers(2))

    @staticmethod
    def drop_removed_links(x: np.ndarray, pairs) -> None:
        """SIS states are bits, topology-independent: migration across
        removed links is the identity."""
        del x, pairs

    def independent_set(self, x: np.ndarray) -> frozenset[NodeId]:
        """In-set node ids of a dense state array."""
        return frozenset(int(self._ids[k]) for k in range(self.n) if x[k] == 1)
