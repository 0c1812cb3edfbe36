"""Small labelled graphs that the tests build by name."""

from alpha2minor.errors import PreconditionError
from alpha2minor.generate import random_alpha2
from alpha2minor.graphs import Graph, complement


def cycle(n: int) -> Graph:
    if n < 3:
        raise PreconditionError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n: int) -> Graph:
    if n < 1:
        raise PreconditionError("paths need at least 1 vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def five_wheel() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]
    return Graph.from_edges(6, edges)


def clique_join_independent_graph(ell: int, m: int) -> Graph:
    """The ell-clique joined to an independent set of size m, labeled with the
    clique on 0..ell-1."""
    if ell < 1 or m < 0:
        raise PreconditionError("need ell >= 1 and m >= 0")
    edges = [(u, v) for u in range(ell) for v in range(u + 1, ell)]
    edges += [(u, w) for u in range(ell) for w in range(ell, ell + m)]
    return Graph.from_edges(ell + m, edges)


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def petersen_complement() -> Graph:
    return complement(petersen())


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union with every cross pair adjacent."""
    n = g.n + h.n
    rows = []
    hi_mask = ((1 << h.n) - 1) << g.n
    lo_mask = (1 << g.n) - 1
    for v in range(g.n):
        rows.append(g.adj[v] | hi_mask)
    for v in range(h.n):
        rows.append((h.adj[v] << g.n) | lo_mask)
    return Graph(n, tuple(rows))


def random_joins():
    """Joins of two random_alpha2 factors (seed 0) on 5 to 11 vertices: 28
    graphs, with 119 chi-form rows."""
    for a in range(5, 12):
        for b in range(a, 12):
            yield join(random_alpha2(a, 0), random_alpha2(b, 0))
