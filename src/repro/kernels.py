"""Shared CSR and packed-state helpers for the vectorized kernels.

Both NumPy round kernels (:mod:`repro.matching.smm_vectorized` and
:mod:`repro.mis.sis_vectorized`) step a *frontier* of dirty nodes: after
each round only the nodes whose closed neighbourhood changed need their
decision recomputed.  The helpers here turn a set of dirty rows of a CSR
adjacency into flat entry positions without any per-row Python loop,
provide the packed state layout primitives shared by the single-run and
batch kernels, and hold :class:`FrontierKernel` — the one stepping loop
both kernels run:

* :func:`state_dtype` — the narrowest signed integer dtype that can hold
  a dense pointer value plus the ``n`` "+inf" sentinel used by segmented
  minima (int32 up to ~2**31 nodes, int64 beyond).
* :func:`segment_min` / :func:`segment_any` — per-CSR-row reductions via
  ``ufunc.reduceat`` (contiguous segments), replacing the buffered
  ``ufunc.at`` scatter which is an order of magnitude slower.
* :meth:`FrontierKernel.drive` — the frontier driver: plain runs,
  telemetry, fault campaigns and streams all step through it.

See docs/performance.md ("State layout & memory") for the layout rules.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import StabilizationTimeout

#: Explicit NULL-pointer sentinel of the packed SMM layout (dense pointer
#: arrays hold values in ``{SMM_NULL} ∪ {0..n-1}``).
SMM_NULL = -1


def state_dtype(n: int) -> np.dtype:
    """Narrowest signed dtype for dense pointer/index state over ``n`` nodes.

    Segmented minima use ``n`` itself as a "+inf" sentinel, so ``n`` (not
    just ``n - 1``) must be representable; int32 therefore covers
    ``n <= 2**31 - 2`` and anything larger falls back to int64.
    """
    return np.dtype(np.int32) if n <= 2**31 - 2 else np.dtype(np.int64)


def csr_entry_positions(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat CSR entry positions of ``rows``.

    Returns ``(positions, counts)`` where ``positions`` is the
    concatenation of ``range(indptr[r], indptr[r+1])`` over ``rows`` (in
    row order) and ``counts[j]`` is the degree of ``rows[j]``.  This is
    the standard "concatenate ranges" construction: one ``arange`` plus
    one ``repeat``, no Python loop.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    shift = np.concatenate(([0], np.cumsum(counts)[:-1]))
    positions = np.arange(total, dtype=np.int64) + np.repeat(starts - shift, counts)
    return positions, counts


def closed_neighborhood(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Sorted unique dense indices of ``rows`` plus all their neighbours
    (``N[rows]`` — the next round's dirty set)."""
    positions, _ = csr_entry_positions(indptr, rows)
    return np.unique(np.concatenate((rows, indices[positions])))


def segment_min(vals: np.ndarray, indptr: np.ndarray, sentinel: int) -> np.ndarray:
    """Per-segment minimum of contiguous segments of ``vals``.

    ``indptr`` delimits ``len(indptr) - 1`` segments exactly like a CSR
    row pointer.  Empty segments yield ``sentinel``.  ``reduceat`` on an
    empty segment returns the *next* segment's first element (documented
    NumPy behaviour), so empty segments are masked explicitly, and start
    offsets are clipped into range for trailing empty segments.
    """
    nseg = indptr.size - 1
    if vals.size == 0:
        return np.full(nseg, sentinel, dtype=vals.dtype)
    empty = indptr[:-1] == indptr[1:]
    starts = np.minimum(indptr[:-1], vals.size - 1)
    out = np.minimum.reduceat(vals, starts)
    out[empty] = sentinel
    return out


def segment_any(mask: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment logical OR of contiguous segments of a boolean ``mask``.

    Same segment convention and empty-segment handling as
    :func:`segment_min`; empty segments yield ``False``.
    """
    nseg = indptr.size - 1
    if mask.size == 0:
        return np.zeros(nseg, dtype=bool)
    empty = indptr[:-1] == indptr[1:]
    starts = np.minimum(indptr[:-1], mask.size - 1)
    out = np.logical_or.reduceat(mask, starts)
    out[empty] = False
    return out


#: Frontier size at or below which a round decides through the kernel's
#: pure-Python scalar loop: a couple of list lookups beat ~20 NumPy
#: calls of fixed per-call overhead when only a few nodes can move.
SCALAR_MAX = 32

#: ``observer(counts, active_size, state)`` — called once per counted
#: round, after the round is applied: the per-rule firing counts, the
#: number of nodes the round re-evaluated, and the live state array.
Observer = Callable[[Dict[str, int], int, np.ndarray], None]


class FrontierKernel:
    """The stepping loop shared by the SMM and SIS array kernels.

    The constructor holds the graph's CSR arrays and the state dtype.  A
    subclass supplies its clean-start value (``CLEAN``), its rule names
    (``RULES``), its result
    dataclass (``Result``: ``stabilized, rounds, moves, moves_by_rule``
    and the final state array, positionally), ``encode`` for
    configurations, and three round functions with one contract — each
    returns ``(movers, vals, counts)``: the nodes that fire, the states
    they adopt, and the per-rule firing counts:

    * ``_full_round(state)`` — every node, through the kernel's
      ``(k, n)`` step on a ``(1, n)`` view;
    * ``_gather_round(state, rows)`` — the ndarray ``rows`` only;
    * ``_scalar_round(state, rows)`` — the list ``rows`` only, in pure
      Python (``movers`` and ``vals`` are lists).
    """

    RULES: Tuple[str, ...]
    CLEAN: int
    Result: type

    _indptr_list: Optional[List[int]] = None
    _indices_list: Optional[List[int]] = None

    def __init__(self, graph, dtype) -> None:
        self.graph = graph
        # adjacency_arrays() is cached on the (immutable) graph, so
        # constructing many kernels over one graph — the E10 sweep inner
        # loop, every fault event of a stream — is O(1) after the first
        indptr, indices, ids = graph.adjacency_arrays()
        self.n = graph.n
        self._dtype = np.dtype(dtype)
        self._indptr = indptr
        self._indices = indices
        self._ids = ids
        self._id_to_dense = graph.dense_index()
        # reduceat segment boundaries for the (k, n) step (CSR rows are
        # contiguous along the entry axis); empty rows are masked
        # explicitly — reduceat on an empty segment would return the
        # next segment's first element
        self._seg_empty = indptr[:-1] == indptr[1:]
        self._seg_starts = (
            np.minimum(indptr[:-1], indices.size - 1) if indices.size else None
        )

    def _scalar_csr(self) -> Tuple[List[int], List[int]]:
        """Plain-list CSR mirror for the scalar round, built on first
        use (unboxed int lookups beat ndarray access ~3x for the handful
        of reads per tiny round)."""
        if self._indices_list is None:
            self._indptr_list = self._indptr.tolist()
            self._indices_list = self._indices.tolist()
        return self._indptr_list, self._indices_list

    def _frontier_sound(self, state: np.ndarray) -> bool:
        """Whether every guard of ``state`` reads only its closed
        neighbourhood, so frontier stepping is exact (see :meth:`drive`)."""
        return True

    def drive(
        self,
        state: np.ndarray,
        budget: int,
        moves_by_rule: Dict[str, int],
        *,
        dirty=None,
        touched: Optional[np.ndarray] = None,
        observer: Optional[Observer] = None,
        full_scan: bool = False,
    ) -> Tuple[bool, int, np.ndarray, object]:
        """Step ``state`` (in place) to quiescence or ``budget`` rounds.

        The reference loop order, once: decide → zero-fire stabilized
        break → budget break → apply and count.  ``moves_by_rule``
        accumulates the per-rule firing counts; ``touched``, when given,
        is a length-``n`` bool array accumulating every mover (the
        containment-radius input); ``observer`` sees every counted round.
        Returns ``(stabilized, rounds, state, residual_dirty)`` — the
        residual seeds the next call when the budget cut stepping short.

        Each round decides only the *dirty* nodes: ``dirty=None`` marks
        everything (the cold start), and after a round the dirty set is
        the closed neighbourhood of the movers.  That is exact because
        every guard reads only ``N[i]`` and, under the synchronous
        daemon, every enabled node fires and every firing changes its
        state — so a node outside the dirty set was last seen idle and
        stays idle.  The same argument makes any superset of the
        enabled nodes a sound seed: after a fault on a quiescent state,
        the closed neighbourhood of the nodes whose state or adjacency
        changed.  Per round the decision runs on the cheapest path for
        the frontier's size, with identical results: the full ``(k, n)``
        step when the dirty set reaches n/16 (a dirty superset is always
        sound, so dense rounds mark everything dirty), the pure-Python
        scalar loop up to :data:`SCALAR_MAX` nodes (the dirty set is
        then a sorted list), the CSR gather in between.  ``full_scan``
        forces the full step every round.
        """
        n = self.n
        dense = 1 if full_scan else max(1, n // 16)
        scalar_max = min(SCALAR_MAX, dense - 1)
        scalar_round = self._scalar_round
        if dirty is None:
            dirty = np.arange(n, dtype=np.int64)
        rounds = 0
        while True:
            active = len(dirty)
            if active >= dense:
                movers, vals, counts = self._full_round(state)
                active = n
            elif active <= scalar_max:
                rows = dirty if isinstance(dirty, list) else dirty.tolist()
                movers, vals, counts = scalar_round(state, rows)
            else:
                rows = np.asarray(dirty, dtype=np.int64)
                movers, vals, counts = self._gather_round(state, rows)
            if not len(movers):
                return True, rounds, state, dirty
            if rounds >= budget:
                return False, rounds, state, dirty
            for name in counts:
                moves_by_rule[name] += counts[name]
            rounds += 1
            if isinstance(movers, list):
                # a few scalar writes beat fancy indexing; the next
                # dirty set stays a sorted list for the scalar round
                indptr, indices = self._scalar_csr()
                nxt = set(movers)
                for i, v in zip(movers, vals):
                    state[i] = v
                    nxt.update(indices[indptr[i]:indptr[i + 1]])
                dirty = sorted(nxt)
            else:
                state[movers] = vals
                if len(movers) >= dense:
                    dirty = np.arange(n, dtype=np.int64)
                else:
                    dirty = closed_neighborhood(self._indptr, self._indices, movers)
            if touched is not None:
                touched[movers] = True
            if observer is not None:
                observer(counts, active, state)

    def run(
        self,
        config=None,
        *,
        max_rounds: Optional[int] = None,
        raise_on_timeout: bool = False,
        active_set: bool = True,
        observer: Optional[Observer] = None,
    ):
        """Iterate rounds until no rule fires.

        ``config`` may be a ``{node: state}`` mapping or a dense state
        array; ``None`` is the clean start.  ``active_set=False`` (or a
        state the frontier argument does not cover) decides every node
        every round — identical results, kept for benchmarking.
        """
        if config is None:
            state = np.full(self.n, self.CLEAN, dtype=self._dtype)
        elif isinstance(config, np.ndarray):
            state = config.astype(self._dtype, copy=True)
        else:
            state = self.encode(config)
        budget = max_rounds if max_rounds is not None else self.n + 8
        moves_by_rule = dict.fromkeys(self.RULES, 0)
        full_scan = not (active_set and self._frontier_sound(state))
        stabilized, rounds, state, _ = self.drive(
            state, budget, moves_by_rule, observer=observer, full_scan=full_scan
        )
        result = self.Result(
            stabilized, rounds, sum(moves_by_rule.values()), moves_by_rule, state
        )
        if raise_on_timeout and not stabilized:
            raise StabilizationTimeout(
                f"{type(self).__name__} exceeded {budget} rounds", result
            )
        return result
