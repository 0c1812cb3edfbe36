"""Exact invariants for graphs with independence number at most two.

Key fact used throughout: in such a graph every color class has at most two
vertices, so a proper coloring is a matching in the complement plus
singletons, and the chromatic number equals n minus the complement's matching
number.  That turns the chromatic number, and with it the anti-matching
number n - chi that the packing conditions need, into one polynomial matching
computation, cached per graph.  The same matching also gives criticality:
chi(G - x) = chi(G) exactly when every maximum matching of the complement
covers x, that is, when x lies outside the complement's Gallai-Edmonds set D
(Lovasz-Plummer, *Matching Theory*, ch. 3), and chi(G - x) = chi(G) - 1 for
every x in D.  One more blossom search over the cached matching finds D.
"""

from __future__ import annotations

from functools import lru_cache

from .cliques import clique_number, max_clique
from .errors import PreconditionError
from .graphs import (
    Graph,
    bits,
    complement,
    connected_component_mask,
    independent_sets,
    is_connected_mask,
)
from .matching import gallai_edmonds_d, maximum_matching


@lru_cache(maxsize=1 << 14)
def alpha_at_most_two(g: Graph) -> bool:
    """True iff the graph has no independent set of three vertices."""
    co = complement(g)
    for v in range(co.n):
        row = co.adj[v] & ~((1 << (v + 1)) - 1)
        for u in bits(row):
            if co.adj[v] & co.adj[u] & ~((1 << (u + 1)) - 1):
                return False
    return True


@lru_cache(maxsize=1 << 15)
def complement_matching(g: Graph) -> tuple[tuple[int, int], ...]:
    """A maximum matching of the complement, computed once per graph; its
    pairs are the two-vertex color classes of a minimum coloring.  Valid only
    when the independence number is <= 2."""
    if not alpha_at_most_two(g):
        raise PreconditionError("graph has an independent set of size 3")
    return tuple(maximum_matching(complement(g)))


def chromatic_number_alpha2(g: Graph) -> int:
    """Chromatic number, valid only when the independence number is <= 2."""
    return g.n - len(complement_matching(g))


def critical_vertices(g: Graph) -> int:
    """Mask of the vertices whose deletion lowers the chromatic number: the
    Gallai-Edmonds set D of the complement, found from the cached matching.
    Valid only when the independence number is <= 2."""
    return gallai_edmonds_d(complement(g), complement_matching(g))


def doubled_capacity_of_mask(g: Graph, cmask: int) -> int:
    """Doubled capacity of a clique given as a mask, skipping validation."""
    a_b = 0
    d = 0
    for v in bits(g.vertex_mask() & ~cmask):
        hits = g.adj[v] & cmask
        if hits == cmask or hits == 0:
            a_b += 1
        else:
            d += 1
    return 2 * d + a_b


@lru_cache(maxsize=64)
def minimum_clique_capacity(g: Graph) -> tuple[int, frozenset[int]]:
    """Minimum doubled capacity over every nonempty clique, with a witness:
    among the minimizers, fewest vertices, then smallest mask.  The cliques
    are the complement's independent sets.  The sweep asks for every ell of
    one graph in a row, so a few cache entries suffice."""
    if g.n == 0:
        raise PreconditionError("no cliques in the empty graph")
    doubled, _, mask = min(
        (doubled_capacity_of_mask(g, m), m.bit_count(), m)
        for m in independent_sets(complement(g))
        if m
    )
    return doubled, frozenset(bits(mask))


def is_five_wheel(g: Graph) -> bool:
    """True iff the graph is a five-cycle plus one vertex adjacent to all of it."""
    if g.n != 6 or sorted(g.degrees()) != [3, 3, 3, 3, 3, 5]:
        return False
    hub = max(range(6), key=g.degree)
    rim = g.vertex_mask() & ~(1 << hub)
    if not all(g.degree(v) == 3 for v in bits(rim)):
        return False
    # The rim must induce a connected 2-regular graph on 5 vertices: a C5.
    return is_connected_mask(g, rim)


def co_components(g: Graph) -> list[frozenset[int]]:
    """Connected components of the complement, ordered by smallest member.

    The graph is anti-connected iff there is exactly one component; grouping
    distinct components on two sides always yields a join partition (every
    cross pair is an edge of the graph).
    """
    co = complement(g)
    remaining = g.vertex_mask()
    out = []
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        comp = connected_component_mask(co, start, remaining)
        out.append(frozenset(bits(comp)))
        remaining &= ~comp
    return out


__all__ = [
    "alpha_at_most_two",
    "chromatic_number_alpha2",
    "clique_number",
    "co_components",
    "complement_matching",
    "critical_vertices",
    "doubled_capacity_of_mask",
    "is_five_wheel",
    "max_clique",
    "minimum_clique_capacity",
]
