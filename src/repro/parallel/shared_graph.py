"""Zero-copy CSR graph handoff to pool workers.

Sweeps run thousands of trials over a handful of graphs, yet the plain
pool path re-pickles and re-deserializes a full :class:`Graph` (its
adjacency dict of tuples) with *every* spec.  This module provides two
proxies that make the graph cross the process boundary cheaply, both
byte-identical in observable behaviour (a proxy *is* a ``Graph`` —
same nodes, edges, hash and CSR arrays):

:class:`SharedGraph`
    The CSR buffers (``indptr``/``indices``/``ids``) are written once
    per sweep into a named ``multiprocessing.shared_memory`` segment by
    the parent; the proxy pickles to just the segment name, and a worker
    attaches and rebuilds the graph around zero-copy views of the
    segment (:meth:`Graph.from_csr_arrays`), caching the attachment so
    repeated same-graph specs cost a dict lookup.

:class:`MemoGraph`
    The legacy (non-shared-memory) fallback: the parent pickles the
    graph's state *once* and ships the resulting bytes with a token; a
    worker unpickles the payload on first sight only and serves every
    later spec from a per-process memo keyed by the token.

Lifecycle: :class:`SharedGraphStore` owns the segments.  The parent
creates them in :meth:`SharedGraphStore.pack_specs` and must call
:meth:`SharedGraphStore.close` (unlink) when the sweep finishes — the
trial runner does this in a ``finally``, so segments are reclaimed even
on worker crashes and kill-resume.  Workers attach *untracked*
(:func:`_attach_untracked`): on CPython ≤ 3.12 attaching registers the
segment with the ``resource_tracker`` as if the worker owned it, which
corrupts the parent-owned lifecycle under both fork and spawn.  Segment
names carry the ``repro-g<pid>-`` prefix so leak checks (and the
resilience tests) can audit ``/dev/shm``.
"""

from __future__ import annotations

import itertools
import os
import pickle
import warnings
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.graph import Graph

__all__ = [
    "SHM_PREFIX",
    "MemoGraph",
    "SharedGraph",
    "SharedGraphStore",
    "close_all_stores",
    "leaked_shared_segments",
]

#: Every live store, for process-wide emergency cleanup
#: (:func:`close_all_stores`) — weak so ordinary lifecycle (the trial
#: runner's ``finally``) stays the owner.
_LIVE_STORES: "weakref.WeakSet[SharedGraphStore]" = weakref.WeakSet()


def close_all_stores() -> int:
    """Close (unlink) every live :class:`SharedGraphStore` of this
    process and return how many were closed.

    The graceful-shutdown backstop for long-lived owners: a daemon
    tearing down on SIGTERM calls this after cancelling its sweeps so
    no ``/dev/shm`` segment outlives the process even if a runner's
    ``finally`` never ran (e.g. a worker thread killed mid-sweep).
    Idempotent — closing an already-closed store is a no-op.
    """
    closed = 0
    for store in list(_LIVE_STORES):
        closed += 1
        store.close()
    return closed

#: Prefix of every shared-memory segment created here (followed by the
#: creating pid and a sequence number) — the audit key for leak checks.
SHM_PREFIX = "repro-g"

#: Graphs below this node count ship as :class:`MemoGraph` by default:
#: the segment setup cost outweighs the pickle for tiny graphs.
SHARED_MIN_NODES = 256

_SEQ = itertools.count()


def leaked_shared_segments() -> List[str]:
    """Names of live ``/dev/shm`` segments created by this module
    (empty on platforms without a POSIX shm filesystem)."""
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(SHM_PREFIX))


def _copy_graph_slots(proxy: Graph, graph: Graph) -> None:
    # bypass Graph.__init__ — the source graph is already validated
    proxy._adj = graph._adj
    proxy._nodes = graph._nodes
    proxy._edges = graph._edges
    proxy._hash = None
    proxy._csr = graph._csr
    proxy._fingerprint = graph._fingerprint


class SharedGraph(Graph):
    """A :class:`Graph` whose pickle is a shared-memory segment name.

    Behaves exactly like the wrapped graph in-process (the slots are
    shared); across a process boundary it reduces to
    :func:`_attach_shared_graph`, so the receiving worker maps the CSR
    buffers instead of deserializing the adjacency.
    """

    __slots__ = ("_shm_meta",)

    def __init__(self, graph: Graph, meta: Tuple[str, int, int]) -> None:
        _copy_graph_slots(self, graph)
        self._shm_meta = meta

    def __reduce__(self):
        return (_attach_shared_graph, self._shm_meta)


class MemoGraph(Graph):
    """A :class:`Graph` that ships as ``(token, pickled-state bytes)``.

    The payload is serialized once in the parent; workers deserialize it
    once per process (:func:`_load_memo_graph`) and reuse the cached
    graph for every spec carrying the same token.
    """

    __slots__ = ("_memo_token", "_memo_payload")

    def __init__(self, graph: Graph, token: Tuple[int, int], payload: bytes) -> None:
        _copy_graph_slots(self, graph)
        self._memo_token = token
        self._memo_payload = payload

    def __reduce__(self):
        return (_load_memo_graph, (self._memo_token, self._memo_payload))


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
_ATTACHED: Dict[str, Graph] = {}
_ATTACHED_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}
_MEMO: Dict[Tuple[int, int], Graph] = {}


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without registering it with the resource
    tracker.

    On CPython ≤ 3.12, *attaching* registers the segment just like
    creating it does, so an attached worker's tracker would unlink a
    segment the parent still owns (spawn), or a later explicit
    unregister would double-remove the parent's own registration (fork,
    where the tracker process is shared).  The parent created the
    segment through the normal tracked path and remains the sole owner;
    suppressing the attach-side registration is correct under both
    start methods.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _attach_shared_graph(name: str, n: int, nnz: int) -> Graph:
    """Worker-side unpickle hook of :class:`SharedGraph`."""
    graph = _ATTACHED.get(name)
    if graph is not None:
        return graph
    shm = _attach_untracked(name)
    itemsize = np.dtype(np.int64).itemsize
    indptr = np.ndarray((n + 1,), dtype=np.int64, buffer=shm.buf)
    indices = np.ndarray(
        (nnz,), dtype=np.int64, buffer=shm.buf, offset=(n + 1) * itemsize
    )
    ids = np.ndarray(
        (n,), dtype=np.int64, buffer=shm.buf, offset=(n + 1 + nnz) * itemsize
    )
    for arr in (indptr, indices, ids):
        arr.flags.writeable = False
    graph = Graph.from_csr_arrays(indptr, indices, ids)
    _ATTACHED[name] = graph
    _ATTACHED_SEGMENTS[name] = shm  # keep the mapping alive for the views
    return graph


def _load_memo_graph(token: Tuple[int, int], payload: bytes) -> Graph:
    """Worker-side unpickle hook of :class:`MemoGraph`."""
    graph = _MEMO.get(token)
    if graph is None:
        graph = Graph.__new__(Graph)
        graph.__setstate__(pickle.loads(payload))
        _MEMO[token] = graph
    return graph


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class SharedGraphStore:
    """Parent-owned shared-memory segments for one sweep.

    ``shared=None`` (auto) shares graphs with at least
    ``SHARED_MIN_NODES`` nodes and memoizes the rest; ``shared=True``
    shares everything; ``shared=False`` memoizes everything (the legacy
    pool path minus the per-spec unpickle).  Usable as a context
    manager; :meth:`close` unlinks every segment and is idempotent.
    """

    def __init__(self, shared: Optional[bool] = None) -> None:
        self._shared = shared
        self._segments: List[shared_memory.SharedMemory] = []
        self._wrapped: Dict[Graph, Graph] = {}
        _LIVE_STORES.add(self)

    def __enter__(self) -> "SharedGraphStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def pack_specs(self, specs: Sequence) -> List:
        """Copies of ``specs`` with every graph replaced by its proxy.

        Equal graphs share one proxy (and one segment / payload).  Spec
        fingerprints are unaffected: proxies expose identical nodes and
        edges.
        """
        from dataclasses import replace

        out = []
        for spec in specs:
            graph = spec.graph
            proxy = self._wrapped.get(graph)
            if proxy is None:
                proxy = self._wrap(graph)
                self._wrapped[graph] = proxy
            out.append(replace(spec, graph=proxy))
        return out

    def _wrap(self, graph: Graph) -> Graph:
        if isinstance(graph, (SharedGraph, MemoGraph)):
            return graph
        use_shm = self._shared is True or (
            self._shared is None and graph.n >= SHARED_MIN_NODES
        )
        if use_shm:
            try:
                return self._share(graph)
            except (OSError, ValueError) as exc:
                warnings.warn(
                    f"shared-memory graph handoff unavailable ({exc!r}); "
                    "falling back to per-worker pickling",
                    RuntimeWarning,
                    stacklevel=3,
                )
        token = (os.getpid(), next(_SEQ))
        payload = pickle.dumps(
            graph.__getstate__(), protocol=pickle.HIGHEST_PROTOCOL
        )
        return MemoGraph(graph, token, payload)

    def _share(self, graph: Graph) -> SharedGraph:
        indptr, indices, ids = graph.adjacency_arrays()
        size = indptr.nbytes + indices.nbytes + ids.nbytes
        shm = self._create_segment(max(1, size))
        offset = 0
        for arr in (indptr, indices, ids):
            dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=offset)
            dst[:] = arr
            offset += arr.nbytes
        self._segments.append(shm)
        return SharedGraph(graph, (shm.name, graph.n, int(indices.size)))

    @staticmethod
    def _create_segment(size: int) -> shared_memory.SharedMemory:
        while True:
            name = f"{SHM_PREFIX}{os.getpid()}-{next(_SEQ)}"
            try:
                return shared_memory.SharedMemory(name=name, create=True, size=size)
            except FileExistsError:  # pragma: no cover - stale leftover
                continue

    def close(self) -> None:
        """Unlink every segment created by this store (idempotent)."""
        for shm in self._segments:
            try:
                shm.close()
            except Exception:  # pragma: no cover - already closed
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()
        self._wrapped.clear()
