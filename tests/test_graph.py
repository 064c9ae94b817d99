"""Tests for the immutable Graph class."""

import pickle

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.parallel import TrialSpec, spec_fingerprint
from repro.types import canonical_edge

from conftest import connected_graphs


def triangle() -> Graph:
    return Graph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])


class TestConstruction:
    def test_basic(self):
        g = Graph([0, 1, 2], [(0, 1)])
        assert g.n == 3
        assert g.m == 1

    def test_nodes_sorted(self):
        g = Graph([3, 1, 2], [])
        assert g.nodes == (1, 2, 3)

    def test_edges_canonical(self):
        g = Graph([0, 1], [(1, 0)])
        assert g.edges == frozenset({(0, 1)})

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(GraphError):
            Graph([0, 0, 1], [])

    def test_duplicate_edges_rejected(self):
        with pytest.raises(GraphError):
            Graph([0, 1], [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph([0, 1], [(0, 0)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(GraphError):
            Graph([0, 1], [(0, 2)])

    def test_non_int_node_rejected(self):
        with pytest.raises(GraphError):
            Graph(["a"], [])

    def test_empty_graph(self):
        g = Graph([], [])
        assert g.n == 0 and g.m == 0 and g.is_connected()


class TestAccessors:
    def test_neighbors_sorted(self):
        g = Graph([0, 1, 2, 3], [(0, 3), (0, 1), (0, 2)])
        assert g.neighbors(0) == (1, 2, 3)

    def test_neighbors_unknown_node(self):
        with pytest.raises(GraphError):
            triangle().neighbors(9)

    def test_closed_neighbors(self):
        assert triangle().closed_neighbors(1) == (0, 1, 2)

    def test_degree(self):
        g = Graph([0, 1, 2], [(0, 1)])
        assert g.degree(0) == 1
        assert g.degree(2) == 0

    def test_max_degree(self):
        assert triangle().max_degree() == 2
        assert Graph([], []).max_degree() == 0

    def test_has_edge_both_orders(self):
        g = triangle()
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_has_edge_self(self):
        assert not triangle().has_edge(1, 1)

    def test_contains_iter_len(self):
        g = triangle()
        assert 0 in g and 9 not in g
        assert list(g) == [0, 1, 2]
        assert len(g) == 3

    def test_equality_and_hash(self):
        a = Graph([0, 1], [(0, 1)])
        b = Graph([1, 0], [(1, 0)])
        c = Graph([0, 1], [])
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "not a graph"


class TestStructure:
    def test_connected_triangle(self):
        assert triangle().is_connected()

    def test_disconnected(self):
        g = Graph([0, 1, 2], [(0, 1)])
        assert not g.is_connected()

    def test_components(self):
        g = Graph([0, 1, 2, 3], [(0, 1), (2, 3)])
        comps = g.connected_components()
        assert comps == [frozenset({0, 1}), frozenset({2, 3})]

    def test_single_component(self):
        assert triangle().connected_components() == [frozenset({0, 1, 2})]


class TestDerivation:
    def test_with_edges_add(self):
        g = Graph([0, 1, 2], [(0, 1)])
        g2 = g.with_edges(add=[(1, 2)])
        assert g2.has_edge(1, 2) and not g.has_edge(1, 2)

    def test_with_edges_remove(self):
        g2 = triangle().with_edges(remove=[(0, 1)])
        assert not g2.has_edge(0, 1) and g2.m == 2

    def test_with_edges_add_existing_rejected(self):
        with pytest.raises(GraphError):
            triangle().with_edges(add=[(0, 1)])

    def test_with_edges_remove_absent_rejected(self):
        g = Graph([0, 1, 2], [(0, 1)])
        with pytest.raises(GraphError):
            g.with_edges(remove=[(1, 2)])

    def test_subgraph(self):
        sub = triangle().subgraph([0, 1])
        assert sub.nodes == (0, 1) and sub.edges == frozenset({(0, 1)})

    def test_subgraph_unknown_node(self):
        with pytest.raises(GraphError):
            triangle().subgraph([0, 9])

    def test_relabeled(self):
        g = Graph([0, 1], [(0, 1)])
        r = g.relabeled({0: 10, 1: 20})
        assert r.nodes == (10, 20) and r.has_edge(10, 20)

    def test_relabeled_must_cover(self):
        with pytest.raises(GraphError):
            triangle().relabeled({0: 1})

    def test_relabeled_must_be_injective(self):
        with pytest.raises(GraphError):
            triangle().relabeled({0: 5, 1: 5, 2: 6})


class TestInterop:
    def test_to_networkx(self):
        nxg = triangle().to_networkx()
        assert isinstance(nxg, nx.Graph)
        assert set(nxg.nodes) == {0, 1, 2}
        assert nxg.number_of_edges() == 3

    def test_from_edges_with_n(self):
        g = Graph.from_edges([(0, 1), (1, 2)], n=4)
        assert g.nodes == (0, 1, 2, 3)

    def test_from_edges_infers_nodes(self):
        g = Graph.from_edges([(5, 7)])
        assert g.nodes == (5, 7)

    def test_from_edges_out_of_range(self):
        with pytest.raises(GraphError):
            Graph.from_edges([(0, 5)], n=3)

    def test_adjacency_arrays_structure(self):
        g = Graph([0, 1, 2], [(0, 1), (1, 2)])
        indptr, indices, ids = g.adjacency_arrays()
        assert list(ids) == [0, 1, 2]
        assert list(indptr) == [0, 1, 3, 4]
        assert list(indices[indptr[1]:indptr[2]]) == [0, 2]

    def test_adjacency_arrays_non_contiguous_ids(self):
        g = Graph([10, 30, 20], [(10, 30)])
        indptr, indices, ids = g.adjacency_arrays()
        assert list(ids) == [10, 20, 30]
        # 10's sole neighbour is 30 -> dense index 2
        assert list(indices[indptr[0]:indptr[1]]) == [2]


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(connected_graphs())
    def test_handshake_lemma(self, g):
        assert sum(g.degree(v) for v in g.nodes) == 2 * g.m

    @settings(max_examples=30, deadline=None)
    @given(connected_graphs())
    def test_neighbor_symmetry(self, g):
        for u in g.nodes:
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    @settings(max_examples=30, deadline=None)
    @given(connected_graphs())
    def test_generated_graphs_connected(self, g):
        assert g.is_connected()

    @settings(max_examples=30, deadline=None)
    @given(connected_graphs())
    def test_adjacency_roundtrip(self, g):
        indptr, indices, ids = g.adjacency_arrays()
        for k, node in enumerate(ids):
            dense = indices[indptr[k]:indptr[k + 1]]
            assert tuple(int(ids[d]) for d in dense) == g.neighbors(int(node))


class TestEqualEndpoints:
    """An endpoint equal to a node id is stored as that id."""

    def test_float_and_bool_endpoints_are_stored_as_ids(self):
        odd = Graph([0, 1, 2], [(0.0, 1), (True, 2)])
        plain = Graph([0, 1, 2], [(0, 1), (1, 2)])
        assert odd == plain and hash(odd) == hash(plain)
        assert odd.neighbors(1) == (0, 2)
        assert all(type(x) is int for x in odd.neighbors(1))
        assert all(type(x) is int for e in odd.edges for x in e)
        assert spec_fingerprint(TrialSpec("smm", odd, seed=1)) == spec_fingerprint(
            TrialSpec("smm", plain, seed=1)
        )

    def test_numpy_endpoints_are_stored_as_ids(self):
        g = Graph([3, 7], [(np.int64(7), np.int32(3))])
        assert g.edges == frozenset({(3, 7)})
        assert all(type(x) is int for x in g.neighbors(3))

    @pytest.mark.parametrize("bad", [0.5, "a", 2**70, None])
    def test_endpoint_equal_to_no_id_is_unknown(self, bad):
        with pytest.raises(GraphError, match="references unknown node"):
            Graph([0, 1], [(0, bad)])

    def test_ids_outside_int64_rejected(self):
        with pytest.raises(GraphError, match="int64"):
            Graph([0, 2**63], [])
        with pytest.raises(GraphError, match="int64"):
            Graph([-(2**63) - 1], [])
        with pytest.raises(GraphError, match="int64"):
            Graph([0], []).with_updates(add_nodes=[2**64])
        assert Graph([2**63 - 1, -(2**63)], []).nodes == (-(2**63), 2**63 - 1)


# ----------------------------------------------------------------------
# the array constructor against a plain dict/set construction
# ----------------------------------------------------------------------
def _oracle(nodes, edges):
    """``(nodes, {id: neighbours}, edge set)`` built the plain way, with
    the error (type and message) of the first offending item."""
    node_list = list(nodes)
    node_set = set(node_list)
    if len(node_set) != len(node_list):
        raise GraphError("duplicate node ids")
    for x in node_list:
        if not isinstance(x, int):
            raise GraphError(f"node id {x!r} is not an int")
    adj = {x: [] for x in node_list}
    edge_set = set()
    for u, v in edges:
        e = canonical_edge(u, v)
        if e in edge_set:
            raise GraphError(f"duplicate edge {e}")
        if u not in node_set or v not in node_set:
            raise GraphError(f"edge {e} references unknown node")
        edge_set.add(e)
        adj[u].append(v)
        adj[v].append(u)
    return (
        tuple(sorted(node_list)),
        {x: tuple(sorted(row)) for x, row in adj.items()},
        frozenset(edge_set),
    )


def _assert_matches_oracle(g, nodes, adj, edges):
    assert g.nodes == nodes and list(g) == list(nodes) and len(g) == len(nodes)
    assert g.edges == edges and g.m == len(edges)
    for x in nodes:
        assert g.neighbors(x) == adj[x] and x in g
    pos = {x: k for k, x in enumerate(nodes)}
    assert g.dense_index() == pos
    indptr, indices, ids = g.adjacency_arrays()
    assert indptr.dtype == indices.dtype == ids.dtype == np.int64
    assert ids.tolist() == list(nodes)
    assert indptr.tolist() == [0, *np.cumsum([len(adj[x]) for x in nodes]).tolist()]
    assert indices.tolist() == [pos[v] for x in nodes for v in adj[x]]
    assert g.max_degree() == max((len(r) for r in adj.values()), default=0)


_ids = st.one_of(
    st.integers(-40, 40), st.integers(-(2**63), 2**63 - 1)
)


@st.composite
def graph_inputs(draw, max_n: int = 12):
    """Unsorted, possibly negative, non-contiguous, isolated or empty
    node lists, and edge lists in random order and orientation."""
    nodes = draw(st.lists(_ids, unique=True, max_size=max_n))
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)]
    return nodes, edges


@st.composite
def invalid_graph_inputs(draw):
    """Valid inputs with invalid items spliced in at random positions."""
    nodes, edges = draw(graph_inputs(max_n=8))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["dup_node", "non_int", "dup_edge", "loop", "unknown", "non_id"]
        ))
        if kind in ("dup_node", "non_int"):
            if kind == "dup_node" and not nodes:
                continue
            item = draw(st.sampled_from(nodes)) if kind == "dup_node" else draw(
                st.sampled_from(["a", 1.5, 2.0, None])
            )
            nodes.insert(draw(st.integers(0, len(nodes))), item)
            continue
        if kind == "dup_edge":
            if not edges:
                continue
            u, v = draw(st.sampled_from(edges))
            item = draw(st.sampled_from([(u, v), (v, u)]))
        elif kind == "loop":
            x = draw(st.sampled_from(nodes)) if nodes else 99
            item = (x, x)
        else:
            known = draw(st.sampled_from(nodes)) if nodes else 0
            other = 10**6 if kind == "unknown" else 0.5
            item = draw(st.sampled_from([(known, other), (other, known)]))
        edges.insert(draw(st.integers(0, len(edges))), item)
    return nodes, edges


class TestConstructorOracle:
    @settings(max_examples=150, deadline=None)
    @given(graph_inputs())
    def test_valid_inputs(self, inputs):
        nodes, edges = inputs
        g = Graph(nodes, edges)
        _assert_matches_oracle(g, *_oracle(nodes, edges))
        # the same graph from reordered input: equal, same hash
        twin = Graph(reversed(nodes), [(v, u) for u, v in reversed(edges)])
        assert twin == g and hash(twin) == hash(g)
        clone = pickle.loads(pickle.dumps(g))
        assert clone == g and hash(clone) == hash(g)
        for a, b in zip(clone.adjacency_arrays(), g.adjacency_arrays()):
            assert a.tobytes() == b.tobytes()
        if edges:
            assert Graph(nodes, edges[1:]) != g

    @settings(max_examples=200, deadline=None)
    @given(invalid_graph_inputs())
    def test_invalid_inputs_raise_like_the_oracle(self, inputs):
        nodes, edges = inputs
        try:
            _oracle(nodes, edges)
        except (GraphError, ValueError) as want:
            with pytest.raises(type(want)) as got:
                Graph(nodes, edges)
            assert str(got.value) == str(want)
        else:  # the splices happened to stay valid
            _assert_matches_oracle(Graph(nodes, edges), *_oracle(nodes, edges))

    @settings(max_examples=60, deadline=None)
    @given(graph_inputs(), st.randoms(use_true_random=False))
    def test_with_updates_chains(self, inputs, rand):
        nodes, edges = inputs
        g = Graph(nodes, edges)
        node_set = set(nodes)
        edge_set = {canonical_edge(u, v) for u, v in edges}
        next_id = 41  # above the small ids
        for _ in range(8):
            kind = rand.choice(
                ["add_edge", "remove_edge", "add_node", "remove_node", "mixed"]
            )
            change = {}
            if kind in ("add_edge", "mixed") and len(node_set) >= 2:
                u, v = rand.sample(sorted(node_set), 2)
                if canonical_edge(u, v) not in edge_set:
                    change["add_edges"] = [(u, v)]
            if kind in ("remove_edge", "mixed") and edge_set:
                u, v = rand.choice(sorted(edge_set))
                change["remove_edges"] = [(v, u)]
            if kind in ("add_node", "mixed"):
                while next_id in node_set:
                    next_id += 1
                change["add_nodes"] = [next_id]
                if node_set:
                    change["add_edges"] = change.get("add_edges", []) + [
                        (next_id, rand.choice(sorted(node_set)))
                    ]
                next_id += 1
            if kind == "remove_node" and node_set:
                change["remove_nodes"] = [rand.choice(sorted(node_set))]
            g = g.with_updates(**change)
            node_set -= set(change.get("remove_nodes", ()))
            node_set |= set(change.get("add_nodes", ()))
            edge_set -= {
                canonical_edge(u, v) for u, v in change.get("remove_edges", ())
            }
            edge_set = {e for e in edge_set if e[0] in node_set and e[1] in node_set}
            edge_set |= {canonical_edge(u, v) for u, v in change.get("add_edges", ())}
            _assert_matches_oracle(g, *_oracle(node_set, edge_set))
            fresh = Graph(node_set, edge_set)
            assert g == fresh and hash(g) == hash(fresh)
            for a, b in zip(g.adjacency_arrays(), fresh.adjacency_arrays()):
                assert a.tobytes() == b.tobytes()
