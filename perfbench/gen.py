"""Seeded O(n + m) input generators and the benchmark's own CSR.

Everything the benchmark feeds the program is made here from the
workload seed.  The repository's ``erdos_renyi_graph`` and
``unit_disk_graph`` are O(n^2); at the sizes below they would time the
generator instead of the program, so the graphs are built with numpy:

* ``er_edges``: G(n, m)-style sampling of ``m = n * avg_deg / 2`` random
  pairs, self loops and duplicates dropped (O(m log m) for the dedup).
* ``geometric_edges``: random geometric graph on the unit square by
  cell-list bucketing (cell side = radius, half of the 3x3 neighbour
  stencil), O(n + m) expected.
* ``grid_edges`` / ``path_edges``: deterministic topologies; the grid's
  ids are a seeded permutation so that id order is unrelated to the
  layout, as the paper's arbitrary unique ids are.

Node ids are always ``0..n-1``, so a node's id equals its dense index in
the program's CSR as well as in ours.
"""

from __future__ import annotations

import math

import numpy as np


def _dedup(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Canonical ``(min, max)`` edge array without loops or duplicates."""
    keep = u != v
    lo = np.minimum(u[keep], v[keep]).astype(np.int64)
    hi = np.maximum(u[keep], v[keep]).astype(np.int64)
    keys = np.unique(lo * n + hi)
    return np.stack((keys // n, keys % n), axis=1)


def er_edges(n: int, avg_deg: float, rng: np.random.Generator) -> np.ndarray:
    m = int(round(n * avg_deg / 2))
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    return _dedup(u, v, n)


def geometric_edges(n: int, avg_deg: float, rng: np.random.Generator) -> np.ndarray:
    """Unit-square random geometric graph with expected degree ``avg_deg``
    (ignoring the border), radius ``sqrt(avg_deg / (pi n))``."""
    radius = math.sqrt(avg_deg / (math.pi * n))
    pts = rng.random((n, 2))
    side = max(1, int(1.0 / radius))
    cx = np.minimum((pts[:, 0] * side).astype(np.int64), side - 1)
    cy = np.minimum((pts[:, 1] * side).astype(np.int64), side - 1)
    cell = cx * side + cy
    order = np.argsort(cell, kind="stable")
    counts = np.bincount(cell, minlength=side * side)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    us, vs = [], []
    r2 = radius * radius
    for dx, dy in ((0, 0), (1, -1), (1, 0), (1, 1), (0, 1)):
        nx_, ny_ = cx + dx, cy + dy
        ok = (nx_ >= 0) & (nx_ < side) & (ny_ >= 0) & (ny_ < side)
        src = np.nonzero(ok)[0]
        other = nx_[src] * side + ny_[src]
        cnt = counts[other]
        total = int(cnt.sum())
        if total == 0:
            continue
        shift = np.concatenate(([0], np.cumsum(cnt)[:-1]))
        pos = np.arange(total) + np.repeat(starts[other] - shift, cnt)
        a = np.repeat(src, cnt)
        b = order[pos]
        d = pts[a] - pts[b]
        close = (d * d).sum(axis=1) <= r2
        if dx == 0 and dy == 0:
            close &= a < b  # same cell: each unordered pair once
        us.append(a[close])
        vs.append(b[close])
    return _dedup(np.concatenate(us), np.concatenate(vs), n)


def grid_edges(side: int, rng: np.random.Generator) -> np.ndarray:
    n = side * side
    label = rng.permutation(n)
    k = np.arange(n).reshape(side, side)
    horiz = np.stack((k[:, :-1].ravel(), k[:, 1:].ravel()), axis=1)
    vert = np.stack((k[:-1, :].ravel(), k[1:, :].ravel()), axis=1)
    e = label[np.concatenate((horiz, vert))]
    return _dedup(e[:, 0], e[:, 1], n)


def path_edges(n: int) -> np.ndarray:
    k = np.arange(n - 1, dtype=np.int64)
    return np.stack((k, k + 1), axis=1)


def as_lists(n: int, edges: np.ndarray):
    """The ``Graph(nodes, edges)`` arguments: plain Python ints, because
    the constructor rejects numpy integer ids."""
    return list(range(n)), [tuple(e) for e in edges.tolist()]


class CSR:
    """The benchmark's own adjacency (sorted rows), independent of
    ``Graph.adjacency_arrays``; the oracles and input generators use it."""

    def __init__(self, n: int, edges: np.ndarray) -> None:
        self.n = n
        src = np.concatenate((edges[:, 0], edges[:, 1]))
        dst = np.concatenate((edges[:, 1], edges[:, 0]))
        order = np.lexsort((dst, src))
        self.indices = dst[order]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=self.indptr[1:])
        self.row = src[order]
        self.deg = np.diff(self.indptr)

    def random_pointers(self, rng: np.random.Generator) -> np.ndarray:
        """SMM start uniform over ``{null} U N(i)`` per node; -1 = null."""
        pick = (rng.random(self.n) * (self.deg + 1)).astype(np.int64)
        ptr = np.full(self.n, -1, dtype=np.int64)
        has = pick < self.deg
        ptr[has] = self.indices[self.indptr[:-1][has] + pick[has]]
        return ptr


def smm_config(ptr: np.ndarray) -> dict:
    return {i: (None if p < 0 else p) for i, p in enumerate(ptr.tolist())}


def sis_config(x: np.ndarray) -> dict:
    return dict(enumerate(x.tolist()))
