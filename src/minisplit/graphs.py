"""Directed graphs with increasing edge orientation and their laplacians.

Nodes are labeled 1..n and every edge (h, i) satisfies h < i, which matches
the evaluation order of the resolvents.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class GraphSpec:
    n: int
    edges: tuple

    def __post_init__(self):
        edges = tuple((int(h), int(i)) for h, i in self.edges)
        if self.n < 2:
            raise ParameterError("graphs need at least two nodes")
        seen = set()
        for h, i in edges:
            if not (1 <= h < i <= self.n):
                raise ParameterError(f"edge ({h}, {i}) must satisfy 1 <= h < i <= n")
            if (h, i) in seen:
                raise ParameterError(f"duplicate edge ({h}, {i})")
            seen.add((h, i))
        object.__setattr__(self, "edges", edges)

    def degrees(self):
        return np.count_nonzero(incidence(self.n, self.edges), axis=1)


def incidence(n, edges):
    """n x len(edges) matrix with +1 at each edge's source and -1 at its
    target; ``edges`` may repeat and need not form a ``GraphSpec``."""
    ends = np.asarray(edges, dtype=int).reshape(-1, 2)
    cols = np.arange(len(ends))
    b = np.zeros((n, len(ends)))
    b[ends[:, 0] - 1, cols] = 1.0
    b[ends[:, 1] - 1, cols] = -1.0
    return b


def graph_laplacian(g):
    """Degree matrix minus adjacency, B B^T for the incidence matrix B; PSD
    with the all-ones null direction."""
    b = incidence(g.n, g.edges)
    return b @ b.T


def path_graph(n):
    return GraphSpec(n, tuple((i, i + 1) for i in range(1, n)))


def ring_graph(n):
    """The path closed by the edge (1, n); on two nodes that edge is the path's."""
    return GraphSpec(n, tuple((i, i + 1) for i in range(1, n)) + (((1, n),) if n >= 3 else ()))


def complete_graph(n):
    return GraphSpec(n, tuple((h, i) for h in range(1, n + 1) for i in range(h + 1, n + 1)))
