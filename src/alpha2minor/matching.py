"""Maximum cardinality matching in general graphs (blossom contraction).

The classic augmenting-path algorithm with blossom shrinking, O(V^3).  The
chromatic number of a graph with independence number two reduces to a maximum
matching in its complement, and complements of such graphs are arbitrary
triangle-free graphs, so a general matcher (not a bipartite one) is required.

The same search, grown once more from all exposed vertices of a maximum
matching, yields the Gallai-Edmonds set D: the vertices that some maximum
matching leaves exposed, which are exactly the vertices joined to an exposed
vertex by an even alternating path, the outer vertices of that search
(Lovasz-Plummer, *Matching Theory*, ch. 3).  Deleting a vertex lowers the
matching number iff the vertex is outside D; for a graph with independence
number two this is chromatic criticality: chi(G - x) = chi(G) iff x lies
outside D of the complement.
"""

from __future__ import annotations

from collections import deque

from .errors import PreconditionError
from .graphs import Graph, bits


def _alternating_forest(adj: list[list[int]], match: list[int]):
    """Edmonds' search over ``match`` (each vertex's mate, or -1), which the
    caller may augment between searches.  Returns ``(grow, p, used)``.

    ``grow(roots)`` grows an alternating forest from the exposed vertices
    ``roots`` and returns an exposed vertex outside it that it reached, the
    end of an augmenting path back through ``p`` and ``match``, or -1.  After
    -1, ``used`` marks the outer vertices, shrunken blossoms included.  Two
    trees that meet also close an augmenting path; that raises
    PreconditionError, as several roots are grown only from a maximum
    matching.
    """
    n = len(adj)
    p = [-1] * n
    base = list(range(n))
    used = [False] * n

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            if match[b] == -1:
                # Two trees met: an augmenting path between their roots.
                raise PreconditionError("matching is not maximum")
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def grow(roots: list[int]) -> int:
        for i in range(n):
            used[i] = False
            p[i] = -1
            base[i] = i
        for root in roots:
            used[root] = True
        queue = deque(roots)
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                mate = match[to]
                if mate == -1 and not used[to]:
                    p[to] = v
                    return to
                if mate == -1 or p[mate] != -1:
                    # `to` is outer (a root, or the mate of an inner vertex):
                    # an odd cycle; shrink the blossom to its base.
                    curbase = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, curbase, to, in_blossom)
                    mark_path(to, curbase, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif p[to] == -1:
                    p[to] = v
                    used[mate] = True
                    queue.append(mate)
        return -1

    return grow, p, used


def maximum_matching(g: Graph) -> list[tuple[int, int]]:
    """Return a maximum matching as a list of vertex pairs (u < v)."""
    n = g.n
    adj = [list(bits(row)) for row in g.adj]
    match = [-1] * n

    # Greedy warm start; correctness does not depend on it.
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break

    grow, p, _ = _alternating_forest(adj, match)
    for v in range(n):
        if match[v] == -1:
            u = grow([v])
            while u != -1:
                pv = p[u]
                ppv = match[pv]
                match[u] = pv
                match[pv] = u
                u = ppv

    return [(v, match[v]) for v in range(n) if match[v] > v]


def gallai_edmonds_d(g: Graph, matching) -> int:
    """The Gallai-Edmonds set D of ``g`` as a vertex mask, from a maximum
    matching of ``g`` given as vertex pairs: the vertices that some maximum
    matching leaves exposed.  One search from every exposed vertex; its outer
    vertices are D.  Raises PreconditionError if the search finds an
    augmenting path, that is, if ``matching`` is not maximum."""
    n = g.n
    match = [-1] * n
    for u, v in matching:
        match[u] = v
        match[v] = u
    grow, _, used = _alternating_forest([list(bits(row)) for row in g.adj], match)
    # Every exposed vertex is a root, so an augmenting path can only show as
    # two trees meeting, which grow reports by raising.
    grow([v for v in range(n) if match[v] == -1])
    return sum(1 << v for v in range(n) if used[v])
