"""Agent network topology: symmetric connected graphs with dense integer node ids.

Edges are stored directed; every undirected link contributes both orientations,
each of which carries its own dual multiplier in the saddle-point engine. A
graph keeps its sorted directed edges as two index arrays, ``src`` and
``dst``; the tuple views ``edges`` and ``adjacency`` are built on first read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DisconnectedGraph, SelfLoop

__all__ = ["NetworkGraph", "build_graph", "closed_neighborhood", "disjoint_copies",
           "lane_copies", "ring_edges", "path_edges"]


@dataclass(frozen=True, eq=False)
class NetworkGraph:
    """Validated symmetric connected network.

    Attributes:
        n_nodes: number of agents N.
        src, dst: (M,) index arrays of the directed edges (src[k], dst[k]),
            sorted by source and then target; both orientations present.
            ``build_graph`` makes them read-only.
    """

    n_nodes: int
    src: np.ndarray
    dst: np.ndarray

    @property
    def n_edges(self) -> int:
        """Number of directed edges M."""
        return len(self.src)

    @cached_property
    def edges(self) -> tuple:
        """Sorted tuple of the directed pairs (i, j), as Python ints."""
        return tuple(zip(self.src.tolist(), self.dst.tolist()))

    @cached_property
    def adjacency(self) -> tuple:
        """Per-node sorted neighbor tuple."""
        dst = self.dst.tolist()
        bounds = np.searchsorted(self.src, np.arange(self.n_nodes + 1)).tolist()
        return tuple(tuple(dst[a:b]) for a, b in zip(bounds, bounds[1:]))

    @cached_property
    def _codes(self) -> np.ndarray:
        """(M,) ascending edge codes src*N + dst."""
        return self.src * self.n_nodes + self.dst

    def edge_index(self, i: int, j: int) -> int:
        """Position of the directed edge (i, j) in ``edges``; KeyError if absent."""
        n = self.n_nodes
        if 0 <= i < n and 0 <= j < n:
            code = i * n + j
            k = int(np.searchsorted(self._codes, code))
            if k < self.n_edges and self._codes[k] == code:
                return k
        raise KeyError((i, j))

    @cached_property
    def reverse(self) -> np.ndarray:
        """(M,) position of each edge's reverse: edge k is (i, j), edge
        ``reverse[k]`` is (j, i)."""
        return np.searchsorted(self._codes, self.dst * self.n_nodes + self.src)

    @cached_property
    def diameter(self) -> int:
        """Maximum shortest-path length over node pairs (a BFS from every
        node, run on first access)."""
        return max(max(_bfs(self.adjacency, src, self.n_nodes)) for src in range(self.n_nodes))


# up to this many input pairs a Python loop builds the graph faster than the
# fixed cost of the array path's ~25 numpy calls
_LOOP_PAIRS = 16


def build_graph(n_nodes: int, edge_list) -> NetworkGraph:
    """Build a NetworkGraph from an undirected (or partially directed) edge list.

    ``edge_list`` holds pairs (i, j) of ids that convert to integers, as
    ``int`` converts them. Raises SelfLoop for the first (i, i) edge and
    ValueError for the first edge with an id outside [0, n_nodes), both in
    input order, and ValueError or TypeError for a list that is not of
    pairs. The edges are then symmetrized, de-duplicated and sorted, and a
    connectivity check raises DisconnectedGraph naming every node
    unreachable from node 0. Past ``_LOOP_PAIRS`` pairs all of it runs on
    index arrays (the edge codes i*N + j); a shorter list is built by a
    Python loop, which gives the same graph and errors.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    if not isinstance(edge_list, (list, tuple, np.ndarray)):
        edge_list = list(edge_list)
    build = _loop_layout if len(edge_list) <= _LOOP_PAIRS else _array_layout
    ends, unreachable = build(n_nodes, edge_list)
    if unreachable:
        raise DisconnectedGraph(f"nodes unreachable from 0: {unreachable}")
    ends.flags.writeable = False
    return NetworkGraph(n_nodes=n_nodes, src=ends[0], dst=ends[1])


def _edge_error(i: int, j: int, n: int) -> Exception:
    return SelfLoop(f"edge ({i}, {j})") if i == j else ValueError(f"edge ({i}, {j}) outside [0, {n})")


def _loop_layout(n: int, edge_list):
    """``build_graph``'s edge ends, a (2, M) array of the src and dst rows,
    and unreachable nodes, by a loop over the pairs."""
    directed = set()
    for i, j in edge_list:
        i, j = int(i), int(j)
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise _edge_error(i, j, n)
        directed.add((i, j))
        directed.add((j, i))
    edges = sorted(directed)
    neighbors = [[] for _ in range(n)]
    for i, j in edges:
        neighbors[i].append(j)
    unreachable = [v for v, d in enumerate(_bfs(neighbors, 0, n)) if d < 0]
    return np.array(tuple(zip(*edges)) if edges else ((), ()), dtype=np.int64), unreachable


def _array_layout(n: int, edge_list):
    """``build_graph``'s edge ends and unreachable nodes on index arrays."""
    try:
        pairs = np.array(edge_list, dtype=np.int64)
    except OverflowError:  # an id past int64, out of range: compared as Python ints
        pairs = np.array([(int(i), int(j)) for i, j in edge_list], dtype=object)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"edges must be pairs (i, j), got an array of shape {pairs.shape}")
    i, j = pairs[:, 0], pairs[:, 1]
    out = (pairs < 0) | (pairs >= n)
    bad = (out[:, 0] | out[:, 1] | (i == j)).nonzero()[0]
    if bad.size:
        raise _edge_error(int(i[bad[0]]), int(j[bad[0]]), n)
    codes = np.concatenate([i * n + j, j * n + i])
    codes.sort()
    first = np.ones(len(codes), bool)  # the first of each run of equal codes
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    codes = codes[first]
    ends = np.empty((2, len(codes)), np.int64)
    np.divmod(codes, n, out=(ends[0], ends[1]))
    return ends, _components(n, *ends).nonzero()[0].tolist()


def _components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """(n,) smallest node id of each node's component, by hooking every
    root onto the smallest root next to it and halving the trees until
    no edge joins two of them (node 0's component is labelled 0)."""
    root = np.arange(n)
    while True:
        np.minimum.at(root, root[src], root[dst])
        while True:
            up = root[root]
            if np.logical_and.reduce(up == root):
                break
            root = up
        if np.logical_and.reduce(root[src] == root[dst]):
            return root


def _bfs(adjacency, src, n):
    dist = [-1] * n
    dist[src] = 0
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def lane_copies(lanes: int, idx, by: int | None = None) -> np.ndarray:
    """Per-entry array ``idx`` of one copy of a problem, for ``lanes``
    copies one after the other: repeated, each copy's entries shifted by
    s*``by`` when ``by`` is given (an index array); ``idx`` itself for one."""
    idx = np.asarray(idx)
    if lanes == 1:
        return idx
    if by is None:
        return np.tile(idx, lanes)
    return (idx + by * np.arange(lanes)[:, None]).reshape(-1)


def disjoint_copies(g: NetworkGraph, copies: int) -> NetworkGraph:
    """``copies`` unlinked copies of ``g``, copy s's node i numbered s*N + i.

    Not connected when ``copies`` > 1: it lays out a bundle of independent
    runs of one network, not a network of its own."""
    n = g.n_nodes
    return NetworkGraph(n_nodes=copies * n, src=lane_copies(copies, g.src, n),
                        dst=lane_copies(copies, g.dst, n))


def closed_neighborhood(g: NetworkGraph, i: int) -> tuple:
    """Sorted neighbors of i including i itself."""
    if not 0 <= i < g.n_nodes:
        raise ValueError(f"node {i} outside [0, {g.n_nodes})")
    return tuple(sorted((*g.adjacency[i], i)))


def ring_edges(n: int) -> list:
    """Undirected ring edge list on n nodes (empty for n == 1)."""
    if n < 2:
        return []
    if n == 2:
        return [(0, 1)]
    return [(i, (i + 1) % n) for i in range(n)]


def path_edges(n: int) -> list:
    """Undirected path edge list on n nodes."""
    return [(i, i + 1) for i in range(n - 1)]
