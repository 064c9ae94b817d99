"""An immutable undirected graph stored as CSR adjacency arrays.

The graph *is* its three int64 arrays: ``ids`` (the node ids,
ascending), ``indptr`` and ``indices`` (dense neighbour indices, each
row ascending).  The constructor validates and builds them with numpy
sorts, so a 250k-node, 1M-edge network costs a fraction of a second,
and the vectorized kernels read the arrays directly.

Everything else is a view derived from the arrays on first use and
memoised on the (immutable) graph: the ``{id: neighbour tuple}`` dict
behind :meth:`Graph.neighbors` (the reference engine's guard
evaluation), the :attr:`Graph.edges` frozenset, :attr:`Graph.nodes` and
the ``{id: dense index}`` dict of :meth:`Graph.dense_index`.  A caller
that never asks for a view never pays for it.  Immutability also lets
one graph be shared between configurations, daemons, history snapshots
and forked workers without defensive copying.  Conversions to/from
networkx are provided for interoperability.

Node identifiers are ints within the int64 range, with the natural
total order, matching the paper's assumption of unique, comparable ids
(Section 2: "we assume each node is assigned a unique ID").  An edge
endpoint equal to a node id (``1.0``, ``True``, ``numpy.int64(1)``) is
stored as that id.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Iterable, Iterator, Mapping, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.errors import GraphError
from repro.types import Edge, NodeId, canonical_edge

_INT64 = np.iinfo(np.int64)


def _check_nodes(node_list: list) -> None:
    """Raise the error of the first invalid node id: duplicates first,
    then the first non-int, then the first id outside int64."""
    if len(set(node_list)) != len(node_list):
        raise GraphError("duplicate node ids")
    for x in node_list:
        if not isinstance(x, int):
            raise GraphError(f"node id {x!r} is not an int")
        if not _INT64.min <= x <= _INT64.max:
            raise GraphError(f"node id {x!r} is outside the int64 range")


def _parse_ids(nodes: Iterable[NodeId]) -> np.ndarray:
    """The sorted int64 id array of ``nodes``, validated."""
    node_list = list(nodes)
    if not set(map(type, node_list)) <= {int}:
        _check_nodes(node_list)  # bools and int subclasses pass
    try:
        ids = np.array(node_list, dtype=np.int64)
    except OverflowError:
        _check_nodes(node_list)
        raise
    ids.sort()
    if ids.size > 1 and (ids[1:] == ids[:-1]).any():
        raise GraphError("duplicate node ids")
    return ids


def _dense_edges(edges, pos: Mapping) -> Tuple[np.ndarray, np.ndarray]:
    """Dense endpoint arrays of ``edges``, one Python step per edge.

    The reference for every edge the vectorized path in
    :func:`_parse_edges` cannot take, and the error path for any it
    refuses: it raises, for the first offending edge in input order,
    ``ValueError`` for a self loop, then :class:`GraphError` for an
    endpoint equal to no node id, then for a repeated edge."""
    us: list[int] = []
    vs: list[int] = []
    seen: set = set()
    for u, v in edges:
        try:
            e = canonical_edge(u, v)  # raises on a self loop
        except TypeError:  # incomparable endpoints: not both node ids
            e = (u, v)
        ku, kv = pos.get(u), pos.get(v)
        if ku is None or kv is None:
            raise GraphError(f"edge {e} references unknown node")
        key = (ku, kv) if ku < kv else (kv, ku)
        if key in seen:
            raise GraphError(f"duplicate edge {e}")
        seen.add(key)
        us.append(ku)
        vs.append(kv)
    return np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)


def _parse_edges(edges, ids: np.ndarray, pos: Callable[[], Mapping]) -> np.ndarray:
    """The sorted directed entry keys ``row * n + col`` (both
    orientations, dense indices) of ``edges``, validated.  ``pos``
    returns the id -> dense index dict, built only when some edge needs
    the per-edge path."""
    n = ids.size
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        arr = np.asarray(edges) if len(edges) else np.empty((0, 2), np.int64)
    except (TypeError, ValueError):  # ragged or otherwise exotic
        arr = None
    if arr is None or arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "ib":
        u, v = _dense_edges(edges, pos())
    else:
        u, v = arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64)
        du = np.minimum(np.searchsorted(ids, u), max(n - 1, 0))
        dv = np.minimum(np.searchsorted(ids, v), max(n - 1, 0))
        known = (ids[du] == u) & (ids[dv] == v) if n else np.zeros(u.size, bool)
        if not known.all():
            _dense_edges(edges, pos())  # raises
        u, v = du, dv
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = np.concatenate((lo * n + hi, hi * n + lo))
    keys.sort()
    if keys.size > 1 and (keys[1:] == keys[:-1]).any():
        _dense_edges(edges, pos())  # a self loop or a repeat: raises
    return keys


class Graph:
    """Immutable undirected graph over integer node ids.

    Parameters
    ----------
    nodes:
        Iterable of node ids.  Ids must be unique ints within int64.
    edges:
        Iterable of ``(u, v)`` pairs, or an ``(m, 2)`` integer array.
        Both endpoints must equal node ids; self loops and duplicate
        edges are rejected so that accidental workload bugs surface
        early.

    Notes
    -----
    Neighbour lists are stored sorted ascending.  Rule R2 of Algorithm
    SMM needs the *minimum-id* neighbour satisfying a predicate; sorted
    adjacency makes that a simple first-match scan.
    """

    # ``_ids``/``_indptr``/``_indices`` are the graph; every other slot
    # is a view or memo derived from them on first use, never pickled
    __slots__ = (
        "_ids", "_indptr", "_indices",
        "_nodes", "_pos", "_adj", "_edges", "_hash", "_fingerprint", "_memo",
    )

    def __init__(self, nodes: Iterable[NodeId], edges: Iterable[Tuple[NodeId, NodeId]]):
        ids = _parse_ids(nodes)
        self._init(ids, None, None)
        keys = _parse_edges(edges, ids, self.dense_index)
        width = max(ids.size, 1)  # keys are row * n + col
        rows = keys // width
        self._indptr = np.zeros(ids.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=ids.size), out=self._indptr[1:])
        self._indices = keys - rows * width

    def _init(self, ids, indptr, indices) -> None:
        self._ids = ids
        self._indptr = indptr
        self._indices = indices
        self._nodes = None
        self._pos = None
        self._adj = None
        self._edges = None
        self._hash = None
        self._fingerprint = None
        self._memo = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        """All node ids, ascending."""
        if self._nodes is None:
            self._nodes = tuple(self._ids.tolist())
        return self._nodes

    @property
    def edges(self) -> frozenset[Edge]:
        """All edges in canonical ``(min, max)`` form (built on first
        access)."""
        if self._edges is None:
            ids, indices = self._ids, self._indices
            row = np.repeat(ids, np.diff(self._indptr))
            upper = ids[indices] > row
            self._edges = frozenset(
                zip(row[upper].tolist(), ids[indices[upper]].tolist())
            )
        return self._edges

    @property
    def n(self) -> int:
        """Number of nodes (the paper's ``n``)."""
        return int(self._ids.size)

    @property
    def m(self) -> int:
        """Number of edges."""
        return int(self._indices.size) // 2

    def _adjacency(self) -> Dict[NodeId, Tuple[NodeId, ...]]:
        """The ``{id: neighbour ids}`` view (built on first use)."""
        if self._adj is None:
            flat = self._ids[self._indices].tolist()
            bounds = self._indptr.tolist()
            self._adj = {
                node: tuple(flat[bounds[k]:bounds[k + 1]])
                for k, node in enumerate(self.nodes)
            }
        return self._adj

    def neighbors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Neighbours of ``node``, ascending.  ``N(i)`` in the paper."""
        try:
            return self._adjacency()[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    def closed_neighbors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """``N[i] = N(i) ∪ {i}``, ascending."""
        neigh = self.neighbors(node)
        out = list(neigh)
        out.append(node)
        out.sort()
        return tuple(out)

    def degree(self, node: NodeId) -> int:
        return len(self.neighbors(node))

    def max_degree(self) -> int:
        """``Δ(G)``; 0 for the empty graph."""
        return int(np.diff(self._indptr).max()) if self.n else 0

    def has_node(self, node: NodeId) -> bool:
        return node in self.dense_index()

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        if u == v:
            return False
        return v in self._adjacency().get(u, ())

    def __contains__(self, node: object) -> bool:
        return node in self.dense_index()

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self is other or (
            np.array_equal(self._ids, other._ids)
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            # crc32 reads the arrays in place, and unlike a bytes hash
            # it is the same in every process
            crc = zlib.crc32(self._ids)
            crc = zlib.crc32(self._indices, zlib.crc32(self._indptr, crc))
            self._hash = hash((self.n, self.m, crc))
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.m})"

    def __getstate__(self):
        # the arrays only: every view and memo is rebuilt on demand
        return {"ids": self._ids, "indptr": self._indptr, "indices": self._indices}

    def __setstate__(self, state) -> None:
        self._init(state["ids"], state["indptr"], state["indices"])

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """True iff the graph is connected (vacuously true when empty)."""
        return len(self._components()) <= 1

    def connected_components(self) -> list[frozenset[NodeId]]:
        """Connected components as frozensets, ordered by smallest member."""
        nodes = self.nodes
        return [frozenset(nodes[k] for k in comp) for comp in self._components()]

    def _components(self) -> list[list[int]]:
        """Dense-index components by depth-first search, in order of
        their smallest member."""
        indptr = self._indptr.tolist()
        indices = self._indices.tolist()
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            stack = [start]
            while stack:
                u = stack.pop()
                for v in indices[indptr[u]:indptr[u + 1]]:
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
                        stack.append(v)
            comps.append(comp)
        return comps

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def with_edges(
        self,
        add: Iterable[Tuple[NodeId, NodeId]] = (),
        remove: Iterable[Tuple[NodeId, NodeId]] = (),
    ) -> "Graph":
        """Return a new graph with edges added/removed (nodes unchanged).

        This is the primitive behind topology churn: the paper's model
        keeps the node set fixed while links appear and disappear.
        """
        return self.with_updates(add_edges=add, remove_edges=remove)

    def with_updates(
        self,
        *,
        add_edges: Iterable[Tuple[NodeId, NodeId]] = (),
        remove_edges: Iterable[Tuple[NodeId, NodeId]] = (),
        add_nodes: Iterable[NodeId] = (),
        remove_nodes: Iterable[NodeId] = (),
    ) -> "Graph":
        """Derive a graph with nodes and edges added/removed incrementally.

        Unlike constructing ``Graph(nodes, edges)`` from scratch, this
        validates only the changes and splices them into the arrays:
        O(changes) Python plus a few O(n + m) array passes, which the
        streaming engine pays per topology event.  The arrays are
        byte-identical to a from-scratch rebuild (pinned by
        ``tests/test_streaming.py``).  With the node set unchanged the
        derived graph shares ``ids`` and the node views with ``self``.

        Removing a node drops its incident edges implicitly.  Added
        nodes start isolated; edges may reference them in the same call
        (nodes are applied before edges).
        """
        add_edge_list = [canonical_edge(u, v) for u, v in add_edges]
        remove_edge_list = [canonical_edge(u, v) for u, v in remove_edges]
        pos = self.dense_index()

        removed: Dict[NodeId, int] = {}  # id -> old dense index
        for nd in remove_nodes:
            if nd not in pos:
                raise GraphError(f"unknown node {nd!r}")
            if nd in removed:
                raise GraphError("duplicate node ids")
            removed[nd] = pos[nd]
        added: Dict[NodeId, int] = {}  # id as given -> int id
        for nd in add_nodes:
            if not isinstance(nd, int):
                raise GraphError(f"node id {nd!r} is not an int")
            if nd in pos or nd in removed:
                raise GraphError(f"cannot add existing node {nd}")
            if nd in added:
                raise GraphError("duplicate node ids")
            if not _INT64.min <= nd <= _INT64.max:
                raise GraphError(f"node id {nd!r} is outside the int64 range")
            added[nd] = int(nd)

        ids = self._ids
        edge_remove: Dict[Edge, Tuple[int, int]] = {}  # as given -> dense
        for e in remove_edge_list:
            dense = self._dense_edge(pos, e)
            if dense is None or e in edge_remove:
                raise GraphError(f"cannot remove absent edge {e}")
            edge_remove[e] = dense
        for nd, k in removed.items():
            for j in self._indices[self._indptr[k]:self._indptr[k + 1]].tolist():
                e = (ids[min(j, k)].item(), ids[max(j, k)].item())
                edge_remove[e] = (min(j, k), max(j, k))

        def _present(x: NodeId) -> bool:
            return (x in pos and x not in removed) or x in added

        edge_add: Dict[Edge, None] = {}
        for e in add_edge_list:
            present = self._dense_edge(pos, e) is not None
            if (present and e not in edge_remove) or e in edge_add:
                raise GraphError(f"cannot add existing edge {e}")
            if not _present(e[0]) or not _present(e[1]):
                raise GraphError(f"edge {e} references unknown node")
            edge_add[e] = None

        # net changes: an edge both removed and added in one call is a
        # no-op (it is not removed and never re-added)
        gone = [d for e, d in edge_remove.items() if e not in edge_add]
        new = [e for e in edge_add if e not in edge_remove]
        if not gone and not new and not removed and not added:
            return self  # immutable: the same graph

        # drop both entries of every removed edge (the incident edges
        # of removed nodes included), then renumber for a changed node
        # set: dense indices shift monotonically, so rows stay sorted
        indptr, indices = self._indptr, self._indices
        deg = indptr[1:] - indptr[:-1]
        if gone:
            entries = [(a, b) for a, b in gone] + [(b, a) for a, b in gone]
            indices = np.delete(indices, [self._find(x, y) for x, y in entries])
            deg = deg - np.bincount([x for x, _ in entries], minlength=self.n)
        if removed or added:
            alive = np.ones(self.n, dtype=bool)
            alive[list(removed.values())] = False
            new_ids = np.concatenate(
                (ids[alive], np.array(list(added.values()), dtype=np.int64))
            )
            new_ids.sort()
            remap = np.searchsorted(new_ids, ids)
            indices = remap[indices]
            kept, deg = deg[alive], np.zeros(new_ids.size, dtype=np.int64)
            deg[remap[alive]] = kept
            nodes = pos_new = None
        else:
            new_ids, nodes, pos_new = ids, self._nodes, self._pos
        if new:
            def _id(x: NodeId) -> int:
                return added[x] if x in added else ids[pos[x]].item()

            dense = np.searchsorted(
                new_ids, np.array([[_id(u), _id(v)] for u, v in new], dtype=np.int64)
            ).tolist()
            entries = sorted([(a, b) for a, b in dense] + [(b, a) for a, b in dense])
            starts = np.concatenate(([0], np.cumsum(deg))).tolist()
            at = [
                starts[x] + int(indices[starts[x]:starts[x + 1]].searchsorted(y))
                for x, y in entries
            ]
            indices = np.insert(indices, at, [y for _, y in entries])
            deg = deg + np.bincount([x for x, _ in entries], minlength=new_ids.size)
        new_indptr = np.zeros(new_ids.size + 1, dtype=np.int64)
        np.cumsum(deg, out=new_indptr[1:])
        graph = Graph.__new__(Graph)
        graph._init(new_ids, new_indptr, indices)
        graph._nodes, graph._pos = nodes, pos_new
        return graph

    def _find(self, x: int, y: int):
        """Position of dense neighbour ``y`` among row ``x``'s entries
        of ``indices``, or ``None`` when ``y`` is not a neighbour."""
        start, stop = int(self._indptr[x]), int(self._indptr[x + 1])
        k = start + int(self._indices[start:stop].searchsorted(y))
        return k if k < stop and self._indices[k] == y else None

    def _dense_edge(self, pos: Mapping, e: Edge):
        """``(lo, hi)`` dense indices of edge ``e`` if it is present."""
        ku, kv = pos.get(e[0]), pos.get(e[1])
        if ku is None or kv is None or self._find(ku, kv) is None:
            return None
        return (ku, kv) if ku < kv else (kv, ku)

    def subgraph(self, nodes: Iterable[NodeId]) -> "Graph":
        """Induced subgraph on ``nodes``."""
        keep = set(nodes)
        for nd in keep:
            if nd not in self:
                raise GraphError(f"unknown node {nd!r}")
        edges = [e for e in self.edges if e[0] in keep and e[1] in keep]
        return Graph(keep, edges)

    def relabeled(self, mapping: Mapping[NodeId, NodeId]) -> "Graph":
        """Return an isomorphic graph with node ids relabelled.

        Used by experiments that randomize the *id assignment* while
        keeping the topology fixed (both SMM's R2 and SIS's guards are
        id-sensitive, so the id permutation is part of the workload).
        """
        if set(mapping) != set(self.nodes):
            raise GraphError("relabel mapping must cover exactly the node set")
        if len(set(mapping.values())) != len(mapping):
            raise GraphError("relabel mapping must be injective")
        nodes = [mapping[n] for n in self.nodes]
        edges = [(mapping[u], mapping[v]) for u, v in self.edges]
        return Graph(nodes, edges)

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.Graph:
        """Convert to a :class:`networkx.Graph` (copies the structure)."""
        g = nx.Graph()
        g.add_nodes_from(self.nodes)
        g.add_edges_from(self.edges)
        return g

    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple[NodeId, NodeId]], n: int | None = None
    ) -> "Graph":
        """Build a graph from an edge list.

        If ``n`` is given, the node set is ``0..n-1``; otherwise it is
        the set of endpoints appearing in ``edges``.
        """
        edge_list = [canonical_edge(u, v) for u, v in edges]
        if n is not None:
            nodes: Sequence[NodeId] = range(n)
            for u, v in edge_list:
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphError(f"edge ({u}, {v}) outside 0..{n - 1}")
        else:
            nodes = sorted({x for e in edge_list for x in e})
        return cls(nodes, edge_list)

    def adjacency_arrays(self):
        """CSR adjacency ``(indptr, indices, ids)`` as int64 arrays.

        The vectorized kernels (``repro.matching.smm_vectorized`` and
        ``repro.mis.sis_vectorized``) consume this flat layout; see the
        HPC guide note in DESIGN.md §5 (contiguous arrays, views not
        copies).  ``ids[k]`` maps dense index ``k`` back to the node id;
        ``indices`` holds *dense* neighbour indices, each row ascending.
        These are the graph's own storage: O(1), and callers must treat
        them as read-only.
        """
        return self._indptr, self._indices, self._ids

    def dense_index(self) -> Dict[NodeId, int]:
        """``{node id -> dense index}`` (the inverse of
        ``adjacency_arrays()``'s ``ids``), built on first use.  Treat
        as read-only."""
        if self._pos is None:
            self._pos = dict(zip(self.nodes, range(self.n)))
        return self._pos

    def memo(self, key, build: Callable[[], object]):
        """``build()``, computed once per graph and key.

        For arrays derived from the (immutable) adjacency that several
        consumers need, such as the kernels' CSR row-owner array.  Not
        pickled and not carried over by :meth:`with_updates`."""
        if self._memo is None:
            self._memo = {}
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value
