"""Exact maximum clique by branch and bound."""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, bits


@lru_cache(maxsize=1 << 14)
def max_clique(g: Graph) -> tuple[int, frozenset[int]]:
    """Size of a maximum clique plus one witness.

    Branch and bound: candidates are greedily colored and a branch is cut when
    its color count cannot beat the incumbent.  Deterministic witness.
    """
    n = g.n
    if n == 0:
        return 0, frozenset()
    best_size = 0
    best_mask = 0

    def color_bound(cand: int) -> list[tuple[int, int]]:
        # Greedy coloring of the candidate set; vertices come back ordered by
        # color so deep (promising) vertices are expanded first.
        order: list[tuple[int, int]] = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append((v, color))
                avail &= ~g.adj[v] & ~(1 << v)
                rest &= ~(1 << v)
        return order

    def expand(clique_mask: int, size: int, cand: int) -> None:
        nonlocal best_size, best_mask
        order = color_bound(cand)
        for v, color in reversed(order):
            if size + color <= best_size:
                return
            new_clique = clique_mask | (1 << v)
            new_cand = cand & g.adj[v]
            if size + 1 > best_size:
                best_size = size + 1
                best_mask = new_clique
            if new_cand:
                expand(new_clique, size + 1, new_cand)
            cand &= ~(1 << v)

    expand(0, 0, g.vertex_mask())
    return best_size, frozenset(bits(best_mask))


def clique_number(g: Graph) -> int:
    return max_clique(g)[0]
