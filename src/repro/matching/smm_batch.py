"""Batch-vectorized SMM: step many independent runs simultaneously.

Experiment sweeps run the same protocol on the same graph from many
initial configurations (E1: dozens of random starts per cell; the
exhaustive sweeps: hundreds).  Stepping them one at a time leaves
vectorization on the table — the round kernel is embarrassingly
parallel across runs.  :class:`BatchSMM` holds a ``(k, n)`` pointer
matrix (one row per run) and advances all non-stabilized rows each
round through the single-run kernel's ``(k, n)`` round function
(:meth:`VectorizedSMM.step`).

Equivalence with the single-run kernel (hence, transitively, with the
reference engine) is pinned by ``tests/test_batch_kernels.py``.

The pointer matrix is packed to :func:`repro.kernels.state_dtype` (int32
for every practical graph).  A round costs O(k·n) plus the CSR rows of
the null nodes without a proposer (see :meth:`VectorizedSMM.step`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import StabilizationTimeout
from repro.graphs.graph import Graph
from repro.kernels import state_dtype
from repro.matching.smm_vectorized import VectorizedSMM


@dataclass
class BatchResult:
    """Summary of a batch run."""

    stabilized: np.ndarray   #: (k,) bool — per-run stabilization flag
    rounds: np.ndarray       #: (k,) int — rounds used by each run
    final_ptr: np.ndarray    #: (k, n) final pointer matrix
    #: per-rule firing counts, (k,) int array per rule name — always
    #: populated by :meth:`BatchSMM.run_batch`
    moves_by_rule: Dict[str, np.ndarray]

    @property
    def all_stabilized(self) -> bool:
        return bool(self.stabilized.all())

    def max_rounds(self) -> int:
        return int(self.rounds.max(initial=0))


class BatchSMM:
    """SMM rounds vectorized across a batch of runs on one graph."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        # the single-run kernel owns the (k, n) round function and the
        # encode/decode helpers
        self.single = VectorizedSMM(graph)
        self.n = graph.n
        self._dtype = state_dtype(self.n)

    # ------------------------------------------------------------------
    def encode_batch(self, configs: Sequence) -> np.ndarray:
        """Stack ``{node: pointer}`` mappings into a (k, n) matrix."""
        return np.stack([self.single.encode(cfg) for cfg in configs])

    def decode_batch(self, ptrs: np.ndarray):
        return [self.single.decode(ptrs[i]) for i in range(ptrs.shape[0])]

    # ------------------------------------------------------------------
    def step_batch(self, ptrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One synchronous round for every row.

        Returns ``(new_ptrs, moved)`` where ``moved`` is a (k,) bool
        array flagging rows in which at least one rule fired.
        """
        new_ptrs, r1, r2, r3 = self.single.step(ptrs)
        return new_ptrs, (r1 | r2 | r3).any(axis=1)

    # ------------------------------------------------------------------
    def run_batch(
        self,
        configs,
        *,
        max_rounds: Optional[int] = None,
        raise_on_timeout: bool = False,
    ) -> BatchResult:
        """Run every row to stabilization (or the shared round budget).

        ``configs`` is a sequence of mappings or a prepared (k, n) int
        matrix, whose pointers must all be null or edges
        (:meth:`VectorizedSMM.admit`).  Already-stabilized rows are
        frozen (their pointers no longer change), so mixed batches cost
        only as many rounds as the slowest member.
        """
        if isinstance(configs, np.ndarray):
            ptrs = configs.astype(self._dtype, copy=True)
            self.single.admit(ptrs)
        else:
            ptrs = self.encode_batch(configs)
        k = ptrs.shape[0]
        budget = max_rounds if max_rounds is not None else self.n + 8

        rounds = np.zeros(k, dtype=np.int64)
        moves_by_rule = {
            name: np.zeros(k, dtype=np.int64) for name in ("R1", "R2", "R3")
        }
        # Row compaction: each round steps only the rows still moving.
        # A quiescent row is at its fixpoint (no rule can fire again
        # under the synchronous daemon), so dropping it changes nothing
        # observable — counts, rounds and finals stay byte-identical —
        # while the per-round cost shrinks from k·n to |live|·n.  At
        # most `budget` rounds are applied — same cap as the single-run
        # kernel and the reference engine, so round counts agree even
        # on timeouts.
        live = np.arange(k)
        for _ in range(budget):
            new_sub, r1, r2, r3 = self.single.step(ptrs[live])
            moved_sub = (r1 | r2 | r3).any(axis=1)
            if not moved_sub.any():
                live = live[:0]
                break
            moved_idx = live[moved_sub]
            for name, mask in (("R1", r1), ("R2", r2), ("R3", r3)):
                moves_by_rule[name][moved_idx] += mask[moved_sub].sum(axis=1)
            ptrs[moved_idx] = new_sub[moved_sub]
            rounds[moved_idx] += 1
            live = moved_idx
        else:  # budget exhausted: which live rows are still moving?
            if live.size:
                _, moved_sub = self.step_batch(ptrs[live])
                live = live[moved_sub]
        active = np.zeros(k, dtype=bool)
        active[live] = True

        result = BatchResult(
            stabilized=~active,
            rounds=rounds,
            final_ptr=ptrs,
            moves_by_rule=moves_by_rule,
        )
        if raise_on_timeout and not result.all_stabilized:
            raise StabilizationTimeout(
                f"batch SMM: {int(active.sum())} runs exceeded {budget} rounds",
                result,
            )
        return result
