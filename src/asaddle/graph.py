"""Agent network topology: symmetric connected graphs with dense integer node ids.

Edges are stored directed; every undirected link contributes both orientations,
each of which carries its own dual multiplier in the saddle-point engine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DisconnectedGraph, SelfLoop

__all__ = ["NetworkGraph", "build_graph", "closed_neighborhood", "ring_edges", "path_edges"]


@dataclass(frozen=True)
class NetworkGraph:
    """Validated symmetric connected network.

    Attributes:
        n_nodes: number of agents N.
        edges: sorted tuple of directed pairs (i, j); both orientations present.
        adjacency: per-node sorted neighbor tuple.
    """

    n_nodes: int
    edges: tuple = field(default_factory=tuple)
    adjacency: tuple = field(default_factory=tuple)

    @property
    def n_edges(self) -> int:
        """Number of directed edges M."""
        return len(self.edges)

    def edge_index(self, i: int, j: int) -> int:
        return self._edge_pos[(i, j)]

    @cached_property
    def _edge_pos(self) -> dict:
        return {e: k for k, e in enumerate(self.edges)}

    @cached_property
    def diameter(self) -> int:
        """Maximum shortest-path length over node pairs (a BFS from every
        node, run on first access)."""
        return max(max(_bfs(self.adjacency, src, self.n_nodes)) for src in range(self.n_nodes))


def build_graph(n_nodes: int, edge_list) -> NetworkGraph:
    """Build a NetworkGraph from an undirected (or partially directed) edge list.

    Edges are symmetrized and grouped by source into neighborhoods; one BFS
    from node 0 checks connectivity. Raises SelfLoop for any (i, i) edge and
    DisconnectedGraph if some node is unreachable from node 0.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    directed = set()
    for i, j in edge_list:
        i, j = int(i), int(j)
        if i == j:
            raise SelfLoop(f"edge ({i}, {j})")
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            raise ValueError(f"edge ({i}, {j}) outside [0, {n_nodes})")
        directed.add((i, j))
        directed.add((j, i))
    edges = tuple(sorted(directed))
    neighbors = [[] for _ in range(n_nodes)]
    for i, j in edges:
        neighbors[i].append(j)
    adjacency = tuple(map(tuple, neighbors))

    unreachable = [v for v, d in enumerate(_bfs(adjacency, 0, n_nodes)) if d < 0]
    if unreachable:
        raise DisconnectedGraph(f"nodes unreachable from 0: {unreachable}")
    return NetworkGraph(n_nodes=n_nodes, edges=edges, adjacency=adjacency)


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
