"""Vectorized Luby-style randomized MIS rounds.

NumPy kernel for :class:`repro.mis.variants.LubyStyleMIS`.  The
reference executor draws one uniform variate per node per round with
``rng.random(n)`` assigned to nodes in ascending-id order; this kernel
draws from the same generator in the same shape, so a kernel run and an
engine run constructed from generators in identical states produce
*bit-identical* trajectories — the equivalence tests exploit that.

Per round, with draws ``r`` and the lexicographic order
``(r, id)``:

* an out-node **enters** iff it has no in-set neighbour and its draw
  beats every out-neighbour's draw;
* an in-node **leaves** iff some in-set neighbour's draw beats its own.

Termination is structural (a drawless property): the in-set is an MIS —
matching ``LubyStyleMIS.is_quiescent``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.configuration import Configuration
from repro.errors import StabilizationTimeout
from repro.graphs.graph import Graph
from repro.kernels import KernelBoundary, Observer, csr_rows, segment_any, state_dtype
from repro.mis.variants import LubyStyleMIS
from repro.rng import RngLike, ensure_rng
from repro.types import NodeId


@dataclass
class VectorResult:
    """Summary of a vectorized Luby run."""

    stabilized: bool
    rounds: int
    moves: int
    moves_by_rule: Dict[str, int]
    final_x: np.ndarray

    @property
    def final_state(self) -> np.ndarray:
        return self.final_x


class VectorizedLuby(KernelBoundary):
    """Luby-style MIS rounds as array operations over one fixed graph."""

    PROTOCOL = LubyStyleMIS

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        self._row = csr_rows(graph, state_dtype(self.n))

    # ------------------------------------------------------------------
    def encode(self, config) -> np.ndarray:
        """Dense 0/1 array from a ``{node: bit}`` mapping, validated on
        the way (see :class:`repro.kernels.KernelBoundary`)."""
        return self._bits(config, np.int8)

    def decode(self, x: np.ndarray) -> Configuration:
        return self._decode(x.tolist())

    # ------------------------------------------------------------------
    def step(self, x: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """One round under the given per-node draws (shape (n,))."""
        idx = self._indices
        row = self._row
        ids = self._ids
        # neighbour j "beats" owner i on the (draw, id) order
        beats = (draws[idx] > draws[row]) | (
            (draws[idx] == draws[row]) & (ids[idx] > ids[row])
        )

        in_set_nb = np.zeros(self.n, dtype=bool)
        np.logical_or.at(in_set_nb, row, x[idx] == 1)

        # R1 blockers: an out-neighbour that beats me
        out_beats = np.zeros(self.n, dtype=bool)
        np.logical_or.at(out_beats, row, (x[idx] == 0) & beats)
        enter = (x == 0) & ~in_set_nb & ~out_beats

        # R2: an in-set neighbour that beats me
        in_beats = np.zeros(self.n, dtype=bool)
        np.logical_or.at(in_beats, row, (x[idx] == 1) & beats)
        leave = (x == 1) & in_beats

        new_x = x.copy()
        new_x[enter] = 1
        new_x[leave] = 0
        return new_x

    def is_quiescent(self, x: np.ndarray) -> bool:
        """Structural termination: the in-set is an MIS (vectorized)."""
        in_set_nb = x[self._indices] == 1
        # independence: no edge with both endpoints in the set
        if bool((in_set_nb & (x[self._row] == 1)).any()):
            return False
        # domination: every out-node has an in-set neighbour
        dominated = segment_any(in_set_nb, self._indptr)
        return bool((dominated | (x == 1)).all())

    #: :meth:`LubyStyleMIS.is_legitimate` — the in-set is a maximal
    #: independent set — is the quiescence predicate
    legitimate = is_quiescent

    # ------------------------------------------------------------------
    def run(
        self,
        config=None,
        *,
        rng: RngLike = None,
        max_rounds: Optional[int] = None,
        raise_on_timeout: bool = False,
        observer: Optional[Observer] = None,
    ) -> VectorResult:
        """Iterate rounds until the in-set is an MIS.

        Rounds with no winner still consume a draw and count (the
        reference engine's accounting) — see
        :meth:`Protocol.is_quiescent` for why termination cannot be
        "nobody moved this round".  ``observer`` sees every counted
        round (:data:`repro.kernels.Observer`; every round is a full
        scan of ``n`` nodes).
        """
        gen = ensure_rng(rng)
        if config is None:
            x = np.zeros(self.n, dtype=np.int8)
        elif isinstance(config, np.ndarray):
            x = config.astype(np.int8, copy=True)
        else:
            x = self.encode(config)

        budget = max_rounds if max_rounds is not None else 50 * self.n + 100
        moves_by_rule = {"R1": 0, "R2": 0}
        rounds = 0
        stabilized = False
        while rounds < budget:
            if self.is_quiescent(x):
                stabilized = True
                break
            draws = gen.random(self.n)
            new_x = self.step(x, draws)
            changed = new_x != x
            counts = {
                "R1": int((changed & (new_x == 1)).sum()),
                "R2": int((changed & (new_x == 0)).sum()),
            }
            x = new_x
            rounds += 1
            for name, count in counts.items():
                moves_by_rule[name] += count
            if observer is not None:
                observer(counts, self.n, x)
        else:
            stabilized = self.is_quiescent(x)

        result = VectorResult(
            stabilized=stabilized,
            rounds=rounds,
            moves=sum(moves_by_rule.values()),
            moves_by_rule=moves_by_rule,
            final_x=x,
        )
        if raise_on_timeout and not stabilized:
            raise StabilizationTimeout(
                f"vectorized Luby exceeded {budget} rounds", result
            )
        return result

    def independent_set(self, x: np.ndarray) -> frozenset[NodeId]:
        return frozenset(int(self._ids[k]) for k in range(self.n) if x[k] == 1)
