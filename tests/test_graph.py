import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asaddle.errors import DisconnectedGraph, SelfLoop
from asaddle.graph import (_LOOP_PAIRS, build_graph, closed_neighborhood, disjoint_copies, path_edges,
                          ring_edges)
from reference import tuple_disjoint_copies, tuple_graph


def floyd_warshall_diameter(n, edges):
    """Independent all-pairs oracle."""
    inf = float("inf")
    d = np.full((n, n), inf)
    np.fill_diagonal(d, 0.0)
    for i, j in edges:
        d[i, j] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return int(d.max())


def test_path_graph_counts():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.n_edges == 4
    assert g.diameter == 2
    assert g.adjacency == ((1,), (0, 2), (1,))


def test_single_node():
    g = build_graph(1, [])
    assert g.n_edges == 0
    assert g.diameter == 0


def test_ring5_diameter_matches_oracle():
    edges = ring_edges(5)
    g = build_graph(5, edges)
    assert g.diameter == floyd_warshall_diameter(5, g.edges) == 2


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        build_graph(3, [(0, 0), (1, 2)])


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraph):
        build_graph(4, [(0, 1), (2, 3)])


def test_edge_out_of_range():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 5)])


def test_closed_neighborhood():
    g = build_graph(3, path_edges(3))
    assert closed_neighborhood(g, 1) == (0, 1, 2)
    assert closed_neighborhood(build_graph(1, []), 0) == (0,)
    r = build_graph(5, ring_edges(5))
    assert closed_neighborhood(r, 0) == (0, 1, 4)


def test_edge_index_round_trip(ring5):
    for k, e in enumerate(ring5.edges):
        assert ring5.edge_index(*e) == k


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    extra=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=10),
    data=st.data(),
)
def test_symmetric_and_diameter_property(n, extra, data):
    # path edges force connectivity; extras add random structure
    edges = path_edges(n) + [(i % n, j % n) for i, j in extra if i % n != j % n]
    g = build_graph(n, edges)
    for (i, j) in g.edges:
        assert (j, i) in g.edges
        assert j in g.adjacency[i] and i in g.adjacency[j]
    assert g.diameter == floyd_warshall_diameter(n, g.edges)


def outcome(build, n, edges):
    """The graph ``build`` gives, or the type and message of what it raises."""
    try:
        return build(n, edges)
    except Exception as exc:  # noqa: BLE001 - every error is compared
        return type(exc), str(exc)


def assert_same_graph(g, want):
    assert g.n_nodes == want.n_nodes and g.n_edges == want.n_edges
    assert g.edges == want.edges and g.adjacency == want.adjacency
    assert all(type(v) is int for e in g.edges for v in e)
    assert all(type(v) is int for nbrs in g.adjacency for v in nbrs)
    n = g.n_nodes
    assert [g.edge_index(i, j) for i, j in want.edges] == list(range(want.n_edges))
    for i in range(-1, n + 1):  # edges and non-edges, ids out of range included
        for j in (-1, 0, i, i + 1, n - 1, n):
            assert outcome(lambda *e: g.edge_index(*e), i, j) == outcome(lambda *e: want.edge_index(*e), i, j)
    assert [g.edges[k] for k in g.reverse] == [(j, i) for i, j in g.edges]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(min_value=1, max_value=40), data=st.data())
def test_build_graph_matches_tuple_oracle(n, data):
    """Both of build_graph's paths (a loop up to _LOOP_PAIRS pairs, index
    arrays past it) give the tuple oracle's graph, or its error, on edge
    lists with duplicates, both orientations, self-loops, ids out of range
    and unreachable nodes."""
    ids = st.integers(0, n - 1)
    half = n // 2  # two paths, joined only if an extra pair links them
    halves = path_edges(half) + [(i + half, j + half) for i, j in path_edges(n - half)]
    star = [(n - 1, i) for i in range(n - 1)]
    spine = data.draw(st.sampled_from([[], path_edges(n), ring_edges(n), halves, star]))
    extra = data.draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1] or n == 1), max_size=60))
    if spine is halves and data.draw(st.booleans()):
        extra = [(i, j) for i, j in extra if (i < half) == (j < half)]
    label = data.draw(st.permutations(range(n)))  # any numbering of the nodes
    edges = [(label[i], label[j]) for i, j in spine + extra]
    edges += [(j, i) for i, j in edges[:data.draw(st.integers(0, len(edges)))]]
    edges = list(data.draw(st.permutations(edges)))
    if data.draw(st.booleans()):  # one bad pair somewhere: a self-loop or an id out of range
        far = st.integers(-3, n + 3)
        bad = data.draw(far.map(lambda i: (i, i))
                        | st.tuples(far, far).filter(lambda e: not (0 <= min(e) and max(e) < n)))
        edges.insert(data.draw(st.integers(0, len(edges))), bad)
    got, want = outcome(build_graph, n, edges), outcome(tuple_graph, n, edges)
    if isinstance(want, tuple):
        assert got == want
        return
    assert_same_graph(got, want)
    assert got.diameter == want.diameter
    assert [closed_neighborhood(got, i) for i in range(n)] == [closed_neighborhood(want, i) for i in range(n)]
    for copies in (1, 2, 3):
        assert_same_graph(disjoint_copies(got, copies), tuple_disjoint_copies(want, copies))


@pytest.mark.parametrize("n", [_LOOP_PAIRS // 2, 3 * _LOOP_PAIRS])
def test_build_graph_takes_arrays_iterators_and_huge_ids(n):
    edges = ring_edges(n)
    want = tuple_graph(n, edges)
    for given_as in (np.array(edges), iter(edges), tuple(edges), [(float(i), str(j)) for i, j in edges]):
        assert_same_graph(build_graph(n, given_as), want)
    huge = edges + [(1, 2**70)]
    too_far = (ValueError, f"edge (1, {2**70}) outside [0, {n})")
    assert outcome(build_graph, n, huge) == outcome(tuple_graph, n, huge) == too_far
    assert outcome(build_graph, n, [(2**70, 2**70)] + huge)[0] is SelfLoop
