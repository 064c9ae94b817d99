"""Topology generators used as experiment workloads.

Deterministic families (cycles, paths, trees, grids, complete and
bipartite graphs) exercise extreme structure: the paper's own
counterexample lives on a 4-cycle, Theorem 2's worst case is a path, and
complete graphs maximize guard contention.  Random families model ad hoc
deployments: Erdős–Rényi graphs for arbitrary multi-hop topologies and
random geometric (unit-disk) graphs for radio connectivity, the standard
abstraction for the mobile networks the paper targets.

All generators return :class:`repro.graphs.graph.Graph` with node ids
``0..n-1`` unless stated otherwise, and all randomized generators accept
a seed or generator via :func:`repro.rng.ensure_rng`.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import networkx as nx
import numpy as np

from repro.errors import GraphError, NotConnectedError
from repro.graphs.graph import Graph
from repro.rng import RngLike, ensure_rng
from repro.types import NodeId


def cycle_graph(n: int) -> Graph:
    """The cycle ``C_n`` (``n >= 3``).

    ``C_4`` is the paper's non-stabilization counterexample topology for
    the arbitrary-choice variant of rule R2.
    """
    if n < 3:
        raise GraphError("a cycle needs at least 3 nodes")
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    """The path ``P_n`` (``n >= 1``)."""
    if n < 1:
        raise GraphError("a path needs at least 1 node")
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """The star ``K_{1,n-1}``: node 0 is the hub (``n >= 2``)."""
    if n < 2:
        raise GraphError("a star needs at least 2 nodes")
    return Graph(range(n), [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    """The complete graph ``K_n`` (``n >= 1``)."""
    if n < 1:
        raise GraphError("a complete graph needs at least 1 node")
    return Graph(range(n), itertools.combinations(range(n), 2))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """``K_{a,b}`` with parts ``0..a-1`` and ``a..a+b-1``."""
    if a < 1 or b < 1:
        raise GraphError("both parts must be non-empty")
    return Graph(range(a + b), [(i, a + j) for i in range(a) for j in range(b)])


def grid_graph(rows: int, cols: int) -> Graph:
    """The ``rows x cols`` grid; node ``(r, c)`` gets id ``r*cols + c``."""
    if rows < 1 or cols < 1:
        raise GraphError("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((r * cols + c, r * cols + c + 1))
            if r + 1 < rows:
                edges.append((r * cols + c, (r + 1) * cols + c))
    return Graph(range(rows * cols), edges)


def random_tree(n: int, rng: RngLike = None) -> Graph:
    """A uniformly random labelled tree on ``n`` nodes (Prüfer sequence)."""
    if n < 1:
        raise GraphError("a tree needs at least 1 node")
    if n == 1:
        return Graph([0], [])
    if n == 2:
        return Graph([0, 1], [(0, 1)])
    gen = ensure_rng(rng)
    prufer = [int(gen.integers(n)) for _ in range(n - 2)]
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    edges = []
    # classic linear-time Prüfer decoding
    import heapq

    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for x in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph(range(n), edges)


def erdos_renyi_graph(
    n: int,
    p: float,
    rng: RngLike = None,
    *,
    connected: bool = True,
    max_tries: int = 200,
) -> Graph:
    """A ``G(n, p)`` random graph.

    With ``connected=True`` (the default — the paper assumes a connected
    topology) the generator resamples up to ``max_tries`` times and, as
    a last resort, adds a random spanning structure between components;
    this keeps small/sparse sweeps from failing while preserving the
    G(n,p) character for the overwhelmingly common case.
    """
    if n < 1:
        raise GraphError("need at least 1 node")
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability {p} outside [0, 1]")
    gen = ensure_rng(rng)

    def sample() -> Graph:
        if n < 2:
            return Graph(range(n), [])
        # vectorized pair selection: never materialize all C(n, 2)
        # pairs in Python (prohibitive for n in the thousands)
        iu, ju = np.triu_indices(n, k=1)
        mask = gen.random(iu.shape[0]) < p
        return Graph(range(n), np.stack((iu[mask], ju[mask]), axis=1))

    g = sample()
    if not connected:
        return g
    tries = 0
    while not g.is_connected() and tries < max_tries:
        g = sample()
        tries += 1
    if not g.is_connected():
        g = _connect_components(g, gen)
    return g


def random_geometric_graph(
    n: int,
    radius: float,
    rng: RngLike = None,
    *,
    connected: bool = True,
    max_tries: int = 200,
    return_positions: bool = False,
):
    """A random geometric (unit-disk) graph on the unit square.

    Nodes are placed uniformly at random in ``[0,1]^2`` and joined iff
    their Euclidean distance is at most ``radius`` — the standard model
    of omnidirectional radios with a fixed transmission range, i.e. the
    ad hoc networks of the paper's Section 2.

    When ``return_positions`` is true the function returns
    ``(graph, positions)`` where ``positions`` is an ``(n, 2)`` float
    array; the ad hoc simulator uses these as initial coordinates.
    """
    if n < 1:
        raise GraphError("need at least 1 node")
    if radius <= 0:
        raise GraphError("radius must be positive")
    gen = ensure_rng(rng)

    def sample():
        pos = gen.random((n, 2))
        g = unit_disk_graph(pos, radius)
        return g, pos

    g, pos = sample()
    tries = 0
    while connected and not g.is_connected() and tries < max_tries:
        g, pos = sample()
        tries += 1
    if connected and not g.is_connected():
        raise NotConnectedError(
            f"could not sample a connected RGG(n={n}, r={radius}) "
            f"in {max_tries} tries; increase the radius"
        )
    if return_positions:
        return g, pos
    return g


def unit_disk_graph(positions: np.ndarray, radius: float) -> Graph:
    """The unit-disk graph of fixed ``positions`` (``(n, 2)`` array):
    ``u`` and ``v`` are joined iff ``dx*dx + dy*dy <= radius**2 + 1e-12``.

    This is the pure connectivity function: the mobility simulator calls
    it on every repositioning to derive the instantaneous topology.
    O(n + m) expected by cell-list bucketing: with a cell side of at
    least the (slackened) radius, every joined pair lies in the same or
    an adjacent cell, so only those pairs are tested.  The test is the
    brute-force form's own float expression, so the edge set is exactly
    the all-pairs one (pinned by ``tests/test_generators.py``).
    Non-finite points join nothing.
    """
    pts = np.asarray(positions, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GraphError("positions must be an (n, 2) array")
    n = pts.shape[0]
    r2 = radius * radius + 1e-12
    finite = np.flatnonzero(np.isfinite(pts).all(axis=1))
    p = pts[finite]
    if p.shape[0] < 2:
        return Graph(range(n), [])
    low = p.min(axis=0)
    span = float((p.max(axis=0) - low).max())
    # widened so rounding cannot split a joined pair two cells apart;
    # at most 2**20 cells a side keeps the cell keys small
    side = max(math.sqrt(r2) * (1 + 1e-6), span / 2**20)
    cell = ((p - low) // side).astype(np.int64)
    width = int(cell[:, 1].max()) + 3  # y offsets -1..+1 never wrap
    key = cell[:, 0] * width + cell[:, 1] + 1
    order = np.argsort(key, kind="stable")
    cells, start, count = np.unique(key[order], return_index=True, return_counts=True)
    # every point's own cell, then the half stencil (x+1, y-1..y+1) and
    # (x, y+1): every pair of distinct cells is visited once
    steps = np.array([0, width - 1, width, width + 1, 1])
    target = (key[:, None] + steps).ravel()
    slot = np.minimum(np.searchsorted(cells, target), cells.size - 1)
    cnt = np.where(cells[slot] == target, count[slot], 0)
    shift = np.cumsum(cnt) - cnt
    a = np.repeat(np.arange(target.size) // steps.size, cnt)
    b = order[np.arange(int(cnt.sum())) + np.repeat(start[slot] - shift, cnt)]
    own = np.repeat(np.arange(target.size) % steps.size == 0, cnt)
    keep = ~own | (a < b)  # each unordered pair of one cell once
    a, b = a[keep], b[keep]
    dx = p[a, 0] - p[b, 0]
    dy = p[a, 1] - p[b, 1]
    close = dx * dx + dy * dy <= r2
    return Graph(range(n), finite[np.stack((a[close], b[close]), axis=1)])


def from_networkx(g: nx.Graph) -> Graph:
    """Convert a networkx graph with integer node labels."""
    for node in g.nodes:
        if not isinstance(node, int):
            raise GraphError(f"node {node!r} is not an int; relabel first")
    return Graph(g.nodes, g.edges)


def _connect_components(g: Graph, gen: np.random.Generator) -> Graph:
    """Add one random edge between successive components until connected."""
    comps = g.connected_components()
    extra = []
    for a, b in zip(comps, comps[1:]):
        u = int(gen.choice(sorted(a)))
        v = int(gen.choice(sorted(b)))
        extra.append((u, v))
    return g.with_edges(add=extra)


#: Named deterministic + random families used by the experiment sweeps.
#: Each entry maps a family name to a callable ``(n, rng) -> Graph``.
def family(name: str):
    """Return a ``(n, rng) -> Graph`` factory for a named graph family.

    Recognized names: ``cycle``, ``path``, ``star``, ``complete``,
    ``tree``, ``grid`` (nearest square), ``er-sparse`` (p = 2 ln n / n),
    ``er-dense`` (p = 0.5), ``udg`` (radius chosen for likely
    connectivity, ``r = sqrt(2.5 ln n / n)``).
    """
    deterministic = {
        "cycle": lambda n, rng=None: cycle_graph(n),
        "path": lambda n, rng=None: path_graph(n),
        "star": lambda n, rng=None: star_graph(n),
        "complete": lambda n, rng=None: complete_graph(n),
    }
    if name in deterministic:
        return deterministic[name]
    if name == "tree":
        return lambda n, rng=None: random_tree(n, rng)
    if name == "grid":
        def make_grid(n: int, rng=None) -> Graph:
            rows = max(1, int(math.isqrt(n)))
            cols = max(1, (n + rows - 1) // rows)
            g = grid_graph(rows, cols)
            # trim to exactly n nodes while staying connected (drop the
            # tail of the last row, which leaves a connected grid)
            if g.n > n:
                g = g.subgraph(range(n))
            return g
        return make_grid
    if name == "er-sparse":
        def make_er_sparse(n: int, rng=None) -> Graph:
            p = min(1.0, 2.0 * math.log(max(n, 2)) / max(n, 2))
            return erdos_renyi_graph(n, p, rng)
        return make_er_sparse
    if name == "er-dense":
        return lambda n, rng=None: erdos_renyi_graph(n, 0.5, rng)
    if name == "udg":
        def make_udg(n: int, rng=None) -> Graph:
            r = min(1.5, math.sqrt(2.5 * math.log(max(n, 2)) / max(n, 2)))
            return random_geometric_graph(n, r, rng)
        return make_udg
    raise GraphError(f"unknown graph family {name!r}")


#: The family names exercised by the experiment sweeps, in display order.
FAMILY_NAMES: Sequence[str] = (
    "cycle",
    "path",
    "star",
    "complete",
    "tree",
    "grid",
    "er-sparse",
    "er-dense",
    "udg",
)
