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

The alpha <= 2 test, the complement matching and ``cliques.max_clique`` are
cached for the 256 graphs asked last.  Nearly every repeat question comes
from the graph being checked and the subgraphs its constructions derive, so
that holds one graph's working set, and a sweep's memory does not grow with
its universe.
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
)
from .matching import gallai_edmonds_d, maximum_matching


@lru_cache(maxsize=256)
def alpha_at_most_two(g: Graph) -> bool:
    """True iff the graph has no independent set of three vertices."""
    co = complement(g)
    for v in range(co.n):
        row = co.adj[v] & ~((1 << (v + 1)) - 1)
        for u in bits(row):
            if co.adj[v] & co.adj[u] & ~((1 << (u + 1)) - 1):
                return False
    return True


@lru_cache(maxsize=256)
def _complement_matching(g: Graph) -> tuple[tuple[int, int], ...]:
    # This and the next two skip the alpha <= 2 test, for the induced
    # subgraphs that a construction derives from an input that passed it.
    return tuple(maximum_matching(complement(g)))


def _chromatic_number(g: Graph) -> int:
    return g.n - len(_complement_matching(g))


def _critical_vertices(g: Graph) -> int:
    """Mask of the vertices whose deletion lowers the chromatic number: the
    Gallai-Edmonds set D of the complement, found from the cached matching."""
    return gallai_edmonds_d(complement(g), _complement_matching(g))


def _require_alpha2(g: Graph) -> None:
    if not alpha_at_most_two(g):
        raise PreconditionError("graph has an independent set of size 3")


def chromatic_number_alpha2(g: Graph) -> int:
    """Chromatic number, valid only when the independence number is <= 2."""
    _require_alpha2(g)
    return _chromatic_number(g)


def minimum_clique_capacity(g: Graph) -> tuple[int, frozenset[int]]:
    """Minimum doubled capacity over every nonempty clique, with a witness:
    among the minimizers, fewest vertices, then smallest mask.

    The doubled capacity of a clique C is 2|mixed| + |complete| +
    |anticomplete| over the vertices outside C.  Each clique is reached once,
    by adding vertices in increasing order, together with the AND of its rows
    (the complete vertices) and the OR of its rows and C (whose complement
    is the anticomplete vertices), so it costs 2(n - |C|) - |AND| -
    |V - (OR + C)|: a few integer operations per clique."""
    n = g.n
    if n == 0:
        raise PreconditionError("no cliques in the empty graph")
    adj = g.adj
    full = g.vertex_mask()
    best = (2 * n + 1, 0, 0)

    def extend(cmask: int, size: int, cand: int, common: int, seen: int) -> None:
        nonlocal best
        size += 1
        while cand:
            vbit = cand & -cand
            cand ^= vbit
            row = adj[vbit.bit_length() - 1]
            inner = common & row
            outer = seen | row | vbit
            doubled = 2 * (n - size) - inner.bit_count() - (full & ~outer).bit_count()
            if doubled <= best[0]:
                key = (doubled, size, cmask | vbit)
                if key < best:
                    best = key
            extend(cmask | vbit, size, cand & row, inner, outer)

    extend(0, 0, full, full, 0)
    doubled, _, mask = best
    return doubled, frozenset(bits(mask))


def is_five_wheel(g: Graph) -> bool:
    """True iff the graph is a five-cycle plus one vertex adjacent to all of it.

    The degrees decide it: the degree-5 hub sees every other vertex, so the
    rim is 2-regular on five vertices, and the only such graph is C5."""
    return g.n == 6 and sorted(g.degrees()) == [3, 3, 3, 3, 3, 5]


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
    "is_five_wheel",
    "max_clique",
    "minimum_clique_capacity",
]
