"""Batch-vectorized SIS: step many independent runs simultaneously.

Batch analogue of :mod:`repro.mis.sis_vectorized` — the round update
``x' = ¬(∃ bigger in-set neighbour)`` applied to a (k, n) state matrix
through the single-run kernel's ``(k, n)`` round function.  See
:mod:`repro.matching.smm_batch` for the rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import StabilizationTimeout
from repro.graphs.graph import Graph
from repro.mis.sis_vectorized import VectorizedSIS


@dataclass
class BatchResult:
    """Summary of a batch run."""

    stabilized: np.ndarray   #: (k,) bool
    rounds: np.ndarray       #: (k,) int
    final_x: np.ndarray      #: (k, n) final state matrix
    #: per-rule firing counts, (k,) int array per rule name — always
    #: populated by :meth:`BatchSIS.run_batch`
    moves_by_rule: Dict[str, np.ndarray]

    @property
    def all_stabilized(self) -> bool:
        return bool(self.stabilized.all())

    def max_rounds(self) -> int:
        return int(self.rounds.max(initial=0))


class BatchSIS:
    """SIS rounds vectorized across a batch of runs on one graph."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        # the single-run kernel owns the (k, n) round function and the
        # encode/decode helpers
        self.single = VectorizedSIS(graph)
        self.n = graph.n

    def encode_batch(self, configs: Sequence) -> np.ndarray:
        return np.stack([self.single.encode(cfg) for cfg in configs])

    def decode_batch(self, xs: np.ndarray):
        return [self.single.decode(xs[i]) for i in range(xs.shape[0])]

    def step_batch(self, xs: np.ndarray) -> np.ndarray:
        """One synchronous round for every row of the (k, n) matrix."""
        return self.single.step(xs)

    def run_batch(
        self,
        configs,
        *,
        max_rounds: Optional[int] = None,
        raise_on_timeout: bool = False,
    ) -> BatchResult:
        """Run every row to its fixpoint (or the shared budget)."""
        if isinstance(configs, np.ndarray):
            xs = configs.astype(np.uint8, copy=True)
        else:
            xs = self.encode_batch(configs)
        k = xs.shape[0]
        budget = max_rounds if max_rounds is not None else self.n + 8

        rounds = np.zeros(k, dtype=np.int64)
        moves_by_rule = {
            name: np.zeros(k, dtype=np.int64) for name in ("R1", "R2")
        }
        # Row compaction (see the SMM batch kernel): quiescent rows are
        # at their fixpoint, so each round steps only the rows that
        # moved last round — byte-identical results at |live|·n cost.
        # At most `budget` rounds are applied — same cap as the
        # single-run kernel and the reference engine, so round counts
        # agree even on timeouts.
        live = np.arange(k)
        for _ in range(budget):
            sub = xs[live]
            new_sub = self.step_batch(sub)
            changed = new_sub != sub
            moved_sub = changed.any(axis=1)
            if not moved_sub.any():
                live = live[:0]
                break
            moved_idx = live[moved_sub]
            moves_by_rule["R1"][moved_idx] += (changed & (new_sub == 1))[moved_sub].sum(axis=1)
            moves_by_rule["R2"][moved_idx] += (changed & (new_sub == 0))[moved_sub].sum(axis=1)
            xs[moved_idx] = new_sub[moved_sub]
            rounds[moved_idx] += 1
            live = moved_idx
        else:
            if live.size:
                new_sub = self.step_batch(xs[live])
                live = live[(new_sub != xs[live]).any(axis=1)]
        active = np.zeros(k, dtype=bool)
        active[live] = True

        result = BatchResult(
            stabilized=~active,
            rounds=rounds,
            final_x=xs,
            moves_by_rule=moves_by_rule,
        )
        if raise_on_timeout and not result.all_stabilized:
            raise StabilizationTimeout(
                f"batch SIS: {int(active.sum())} runs exceeded {budget} rounds",
                result,
            )
        return result
