"""Shared CSR and packed-state helpers for the vectorized kernels.

Both NumPy round kernels (:mod:`repro.matching.smm_vectorized` and
:mod:`repro.mis.sis_vectorized`) step a *frontier* of dirty nodes: after
each round only the nodes whose closed neighbourhood changed need their
decision recomputed.  The helpers here turn a set of dirty rows of a CSR
adjacency into flat entry positions without any per-row Python loop,
provide the packed state layout primitives shared by the single-run and
batch kernels, and hold the two base classes — :class:`KernelBoundary`,
the array-native run boundary of every kernel (SMM, SIS and Luby), and
:class:`FrontierKernel`, the one stepping loop the SMM and SIS kernels
run:

* :func:`state_dtype` — the narrowest signed integer dtype that can hold
  a dense pointer value plus the ``n`` "+inf" sentinel used by segmented
  minima (int32 up to ~2**31 nodes, int64 beyond).
* :func:`segment_reduce` (and :func:`segment_min` / :func:`segment_any`)
  — per-CSR-row reductions via ``ufunc.reduceat`` (contiguous
  segments), replacing the buffered ``ufunc.at`` scatter which is an
  order of magnitude slower.
* :func:`smm_dense_pointers` / :func:`smm_pointer_ok` — SMM pointer
  states as a dense array, and the one SMM pointer check (is each
  pointer a neighbour?), shared by encode-time validation, the kernel's
  legitimacy predicate and the convergence monitor.
* :class:`KernelBoundary` — validate-in-``encode``, loop-free
  ``decode`` and ``legitimate`` on the dense state.
* :meth:`FrontierKernel.drive` — the frontier driver: plain runs,
  telemetry, fault campaigns and streams all step through it.

See docs/performance.md ("State layout & memory") for the layout rules.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.configuration import Configuration
from repro.errors import InvalidConfigurationError, StabilizationTimeout

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
    (``N[rows]`` — the next round's dirty set).

    Same values and dtype as ``np.unique`` of the concatenation, by sort
    plus adjacent difference: ``np.unique`` lazily imports ``numpy.ma``,
    which a freshly forked trial worker would pay for on its first
    round."""
    positions, _ = csr_entry_positions(indptr, rows)
    merged = np.concatenate((rows, indices[positions]))
    merged.sort()
    if merged.size < 2:
        return merged
    keep = np.empty(merged.size, dtype=bool)
    keep[0] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def csr_rows(graph, dtype) -> np.ndarray:
    """The row (dense index, as ``dtype``) owning each CSR entry of
    ``graph``, memoised on the graph: every kernel over it shares one."""
    dtype = np.dtype(dtype)

    def build() -> np.ndarray:
        indptr = graph.adjacency_arrays()[0]
        return np.repeat(np.arange(graph.n, dtype=dtype), np.diff(indptr))

    return graph.memo(("rows", dtype.str), build)


def segment_reduce(
    ufunc: np.ufunc, vals: np.ndarray, indptr: np.ndarray, fill
) -> np.ndarray:
    """Per-segment ``ufunc`` reduction along the last axis of ``vals``.

    ``indptr`` delimits ``len(indptr) - 1`` contiguous segments exactly
    like a CSR row pointer; ``vals`` is ``(entries,)`` or ``(k,
    entries)`` and the result ``(segments,)`` or ``(k, segments)``.
    Empty segments yield ``fill``.  ``reduceat`` needs every start in
    range, so it runs over the segments through the last non-empty one
    only (clipping a trailing empty segment's start into range would cut
    the last non-empty segment short); empty segments, for which it
    returns the next segment's first element, are masked.
    """
    nseg = indptr.size - 1
    live = int(np.searchsorted(indptr, indptr[-1]))  # through last non-empty
    if live == nseg:
        out = ufunc.reduceat(vals, indptr[:-1], axis=-1)
    else:
        out = np.full(vals.shape[:-1] + (nseg,), fill, dtype=vals.dtype)
        if live:
            out[..., :live] = ufunc.reduceat(vals, indptr[:live], axis=-1)
    out[..., indptr[:-1] == indptr[1:]] = fill
    return out


def segment_min(vals: np.ndarray, indptr: np.ndarray, sentinel: int) -> np.ndarray:
    """Per-segment minimum of contiguous segments along the last axis of
    ``vals`` (:func:`segment_reduce`); empty segments yield ``sentinel``."""
    return segment_reduce(np.minimum, vals, indptr, sentinel)


def segment_any(mask: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment logical OR of contiguous segments along the last axis
    of a boolean ``mask`` (:func:`segment_reduce`); empty segments yield
    ``False``."""
    return segment_reduce(np.logical_or, mask, indptr, False)


def ordered_states(graph, config) -> Optional[list]:
    """The states of ``config`` in dense order (ascending id), or
    ``None`` when its domain is not exactly the node set of ``graph``."""
    states = getattr(config, "_states", None)
    if states is None:
        states = dict(config)
    if len(states) != graph.n:
        return None
    try:
        return list(map(states.__getitem__, graph.nodes))
    except KeyError:
        return None


#: Dense-pointer marker for a target id that is not a node (never a
#: kernel state: ``encode`` rejects it; the convergence monitor counts it).
SMM_NOT_A_NODE = -2


def smm_dense_pointers(graph, config) -> Optional[np.ndarray]:
    """Dense int64 pointer array of a ``{node: Pointer}`` mapping —
    :data:`SMM_NULL` for ``None``, :data:`SMM_NOT_A_NODE` for a target
    id outside the node set — or ``None`` when the domain is not the
    node set or some pointer is not an integer id."""
    states = ordered_states(graph, config)
    if states is None:
        return None
    n = graph.n
    ids = graph.adjacency_arrays()[2]
    null = int(ids[-1]) + 1 if n else 0  # stand-in, not an id
    try:
        targets = np.asarray([null if p is None else p for p in states])
    except (TypeError, ValueError):
        return None
    if targets.ndim != 1:
        return None
    if targets.dtype.kind == "f":  # integral floats name ids exactly
        with np.errstate(invalid="ignore"):
            as_int = targets.astype(np.int64)
        if not (as_int == targets).all():
            return None
        targets = as_int
    elif targets.dtype.kind not in "bi":
        return None
    is_null = targets == null
    if np.count_nonzero(is_null) != states.count(None):
        # some pointer names the stand-in id itself: not a node
        is_null = np.array([p is None for p in states], dtype=bool)
    if n and ids[0] == 0 and ids[-1] == n - 1:
        # ids are exactly 0..n-1: an id is its dense index
        dense = targets
        found = (targets >= 0) & (targets < n)
    else:  # ids ascend, so a binary search maps them to dense indices
        dense = np.minimum(np.searchsorted(ids, targets), max(n - 1, 0))
        found = ids[dense] == targets
    return np.where(found, dense, np.where(is_null, SMM_NULL, SMM_NOT_A_NODE))


def smm_pointer_ok(
    indices: np.ndarray, row: np.ndarray, ptr: np.ndarray
) -> np.ndarray:
    """``ok[i]``: the dense pointer ``ptr[i]`` is a neighbour of ``i``.

    One O(m) pass over the CSR entries (``row[e]`` owns entry ``e``).
    Negative values — null, or any "not a node" marker — and
    self-pointers are never ok: no CSR row lists its own index.
    """
    ok = np.zeros(ptr.shape[0], dtype=bool)
    ok[row[indices == ptr[row]]] = True
    return ok


class KernelBoundary:
    """The run boundary shared by every array kernel, on packed arrays.

    * ``encode`` validates while it packs: one array pass checks the
      domain and the state space, and a configuration the pass refuses
      is handed to the protocol's own
      :meth:`~repro.core.protocol.Protocol.validate_configuration`, so
      the :class:`~repro.errors.InvalidConfigurationError` (and its
      message) is exactly the reference engine's.
    * ``decode`` is one ``tolist()`` and a ``zip`` with the ids.
    * ``legitimate(state)`` is the protocol's legitimacy predicate on
      the dense state.  This default decodes and asks the protocol
      itself; the built-in kernels override it with array predicates
      pinned against ``is_legitimate`` by ``tests/test_boundary.py``.

    A subclass names its protocol class in ``PROTOCOL`` (instantiated
    without arguments for the error message and the default predicate).
    """

    PROTOCOL: type

    def __init__(self, graph) -> None:
        self.graph = graph
        # the graph's own arrays: constructing many kernels over one
        # graph — the E10 sweep inner loop — costs O(1) each
        indptr, indices, ids = graph.adjacency_arrays()
        self.n = graph.n
        self._indptr = indptr
        self._indices = indices
        self._ids = ids

    def _reject(self, config):
        """Raise the protocol's own error for a configuration the array
        checks refused."""
        self.PROTOCOL().validate_configuration(self.graph, config)
        raise InvalidConfigurationError(
            f"configuration is outside {type(self).__name__}'s state encoding"
        )

    def _bits(self, config, dtype) -> np.ndarray:
        """Dense 0/1 state array of a bit protocol (SIS, Luby)."""
        states = ordered_states(self.graph, config)
        if states is None:
            self._reject(config)
        try:
            x = np.asarray(states)
        except (TypeError, ValueError):  # ragged or otherwise exotic
            self._reject(config)
        if x.ndim != 1 or not ((x == 0) | (x == 1)).all():
            self._reject(config)
        return x.astype(dtype)

    def _decode(self, values: list) -> Configuration:
        """Configuration from per-dense-index state values."""
        return Configuration(zip(self.graph.nodes, values))

    def legitimate(self, state: np.ndarray) -> bool:
        """The protocol's legitimacy predicate on a dense state."""
        return self.PROTOCOL().is_legitimate(self.graph, self.decode(state))


#: Frontier size at or below which a round decides through the kernel's
#: pure-Python scalar loop: a couple of list lookups beat ~20 NumPy
#: calls of fixed per-call overhead when only a few nodes can move.
SCALAR_MAX = 32

#: ``observer(counts, active_size, state)`` — called once per counted
#: round, after the round is applied: the per-rule firing counts, the
#: number of nodes the round re-evaluated, and the live state array.
Observer = Callable[[Dict[str, int], int, np.ndarray], None]


class FrontierKernel(KernelBoundary):
    """The stepping loop shared by the SMM and SIS array kernels.

    The constructor holds the graph's CSR arrays and the state dtype.  A
    subclass supplies its protocol (``PROTOCOL``, see
    :class:`KernelBoundary`), its clean-start value (``CLEAN``), its rule
    names (``RULES``), its result
    dataclass (``Result``: ``stabilized, rounds, moves, moves_by_rule``
    and the final state array, positionally), ``encode``/``decode`` for
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

    def __init__(self, graph, dtype) -> None:
        super().__init__(graph)
        self._dtype = np.dtype(dtype)
        self._row_lists: Dict[int, List[int]] = {}

    def _neighbors(self, i: int) -> List[int]:
        """Row ``i``'s dense neighbours as a list, fetched on the first
        scalar round that visits it (unboxed int lookups beat ndarray
        access ~3x for the handful of reads per tiny round, and a tiny
        frontier visits a handful of rows)."""
        row = self._row_lists.get(i)
        if row is None:
            row = self._row_lists[i] = self._indices[
                self._indptr[i]:self._indptr[i + 1]
            ].tolist()
        return row

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
                neighbors = self._neighbors
                nxt = set(movers)
                for i, v in zip(movers, vals):
                    state[i] = v
                    nxt.update(neighbors(i))
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
