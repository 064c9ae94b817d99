"""Tests for graph generators."""

import math

import networkx as nx
import numpy as np
import pytest

from repro.errors import GraphError, NotConnectedError
from repro.graphs.generators import (
    FAMILY_NAMES,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    family,
    from_networkx,
    grid_graph,
    path_graph,
    random_geometric_graph,
    random_tree,
    star_graph,
    unit_disk_graph,
)


class TestDeterministicFamilies:
    def test_cycle_structure(self):
        g = cycle_graph(5)
        assert g.n == 5 and g.m == 5
        assert all(g.degree(v) == 2 for v in g.nodes)
        assert g.is_connected()

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_path_structure(self):
        g = path_graph(5)
        assert g.m == 4
        assert g.degree(0) == g.degree(4) == 1
        assert all(g.degree(v) == 2 for v in (1, 2, 3))

    def test_path_singleton(self):
        g = path_graph(1)
        assert g.n == 1 and g.m == 0

    def test_star_structure(self):
        g = star_graph(6)
        assert g.degree(0) == 5
        assert all(g.degree(v) == 1 for v in range(1, 6))

    def test_star_too_small(self):
        with pytest.raises(GraphError):
            star_graph(1)

    def test_complete_structure(self):
        g = complete_graph(6)
        assert g.m == 15
        assert all(g.degree(v) == 5 for v in g.nodes)

    def test_complete_bipartite(self):
        g = complete_bipartite_graph(2, 3)
        assert g.m == 6
        assert not g.has_edge(0, 1)  # same part
        assert g.has_edge(0, 2)

    def test_complete_bipartite_invalid(self):
        with pytest.raises(GraphError):
            complete_bipartite_graph(0, 3)

    def test_grid_structure(self):
        g = grid_graph(3, 4)
        assert g.n == 12
        assert g.m == 3 * 3 + 2 * 4  # horizontal + vertical
        assert g.is_connected()

    def test_grid_invalid(self):
        with pytest.raises(GraphError):
            grid_graph(0, 3)


class TestRandomTree:
    def test_tree_edge_count(self):
        for n in (1, 2, 3, 10, 40):
            g = random_tree(n, rng=3)
            assert g.n == n and g.m == max(0, n - 1)
            assert g.is_connected()

    def test_reproducible(self):
        assert random_tree(15, rng=9) == random_tree(15, rng=9)

    def test_different_seeds_differ(self):
        trees = {random_tree(15, rng=s) for s in range(8)}
        assert len(trees) > 1

    def test_invalid_size(self):
        with pytest.raises(GraphError):
            random_tree(0)


class TestErdosRenyi:
    def test_connected_by_default(self):
        for seed in range(5):
            assert erdos_renyi_graph(20, 0.15, rng=seed).is_connected()

    def test_p_one_complete(self):
        g = erdos_renyi_graph(6, 1.0, rng=1)
        assert g.m == 15

    def test_p_zero_unconnected_allowed(self):
        g = erdos_renyi_graph(5, 0.0, rng=1, connected=False)
        assert g.m == 0

    def test_p_zero_connected_fallback(self):
        # impossible as G(n,0); the fallback adds bridging edges
        g = erdos_renyi_graph(5, 0.0, rng=1, max_tries=3)
        assert g.is_connected()

    def test_invalid_p(self):
        with pytest.raises(GraphError):
            erdos_renyi_graph(5, 1.5)

    def test_reproducible(self):
        assert erdos_renyi_graph(15, 0.3, rng=2) == erdos_renyi_graph(15, 0.3, rng=2)

    def test_edge_density_sane(self):
        g = erdos_renyi_graph(40, 0.5, rng=3, connected=False)
        expected = 0.5 * 40 * 39 / 2
        assert 0.6 * expected < g.m < 1.4 * expected


class TestGeometric:
    def test_positions_shape_and_range(self):
        g, pos = random_geometric_graph(15, 0.5, rng=1, return_positions=True)
        assert pos.shape == (15, 2)
        assert (pos >= 0).all() and (pos <= 1).all()

    def test_edges_match_distances(self):
        g, pos = random_geometric_graph(12, 0.4, rng=2, return_positions=True)
        for u in g.nodes:
            for v in g.nodes:
                if u >= v:
                    continue
                d = float(np.linalg.norm(pos[u] - pos[v]))
                assert g.has_edge(u, v) == (d <= 0.4 + 1e-12)

    def test_unconnectable_raises(self):
        with pytest.raises(NotConnectedError):
            random_geometric_graph(30, 0.01, rng=1, max_tries=3)

    def test_invalid_radius(self):
        with pytest.raises(GraphError):
            random_geometric_graph(5, 0.0)

    def test_unit_disk_from_positions(self):
        pos = np.array([[0.0, 0.0], [0.0, 0.5], [0.9, 0.9]])
        g = unit_disk_graph(pos, 0.6)
        assert g.has_edge(0, 1) and not g.has_edge(0, 2)

    def test_unit_disk_bad_shape(self):
        with pytest.raises(GraphError):
            unit_disk_graph(np.zeros((3, 3)), 0.5)

    def test_unit_disk_empty(self):
        g = unit_disk_graph(np.zeros((0, 2)), 0.5)
        assert g.n == 0


def _unit_disk_brute_force(pts, radius):
    """The all-pairs form the cell-list generator must reproduce."""
    diff = pts[:, None, :] - pts[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    iu, ju = np.triu_indices(pts.shape[0], k=1)
    close = dist2[iu, ju] <= radius * radius + 1e-12
    return frozenset(zip(iu[close].tolist(), ju[close].tolist()))


class TestUnitDiskCellList:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_positions_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        radius = float(rng.choice([1e-9, 0.01, 0.07, 0.2, 0.5, 2.0]))
        pts = rng.random((n, 2)) * float(rng.choice([0.1, 1.0, 30.0])) - 0.5
        g = unit_disk_graph(pts, radius)
        assert g.nodes == tuple(range(n))
        assert g.edges == _unit_disk_brute_force(pts, radius)

    @pytest.mark.parametrize("radius", [0.05, 0.1, 0.15, 0.05 * math.sqrt(2)])
    def test_lattice_points_at_the_radius_and_on_cell_borders(self, radius):
        # lattice spacing 0.05: many pairs sit exactly at the radius
        # (up to rounding), and points fall on cell boundaries
        rng = np.random.default_rng(3)
        pts = np.round(rng.random((150, 2)) * 20) / 20
        pts = np.concatenate((pts, pts[:5] + [radius, 0.0], pts[5:10] + [0.0, radius]))
        g = unit_disk_graph(pts, radius)
        assert g.edges == _unit_disk_brute_force(pts, radius)

    def test_coincident_and_non_finite_points(self):
        pts = np.array(
            [[0.3, 0.3], [0.3, 0.3], [np.inf, 0.0], [np.nan, 1.0], [0.3, 0.4]]
        )
        g = unit_disk_graph(pts, 0.1)
        assert g.edges == frozenset({(0, 1), (0, 4), (1, 4)})


class TestFromNetworkx:
    def test_roundtrip(self):
        nxg = nx.cycle_graph(5)
        g = from_networkx(nxg)
        assert g == cycle_graph(5)

    def test_non_int_labels_rejected(self):
        nxg = nx.Graph()
        nxg.add_edge("a", "b")
        with pytest.raises(GraphError):
            from_networkx(nxg)


class TestFamilyRegistry:
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_every_family_builds_connected(self, name):
        make = family(name)
        g = make(12, np.random.default_rng(5))
        assert g.n == 12
        assert g.is_connected()

    def test_grid_family_trims_to_exact_n(self):
        g = family("grid")(10, None)
        assert g.n == 10 and g.is_connected()

    def test_unknown_family(self):
        with pytest.raises(GraphError):
            family("moebius")

    def test_deterministic_families_ignore_rng(self):
        assert family("cycle")(8, np.random.default_rng(1)) == cycle_graph(8)
