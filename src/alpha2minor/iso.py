"""Graph isomorphism at desk scale: color refinement plus backtracking.

Used to deduplicate enumeration streams.  Refinement colors are canonical
(ranked by sorted signature), so equal refined-color histograms are necessary
for isomorphism and give a cheap bucketing invariant; the backtracking matcher
settles the survivors exactly.  Callers compute each graph's colors once and
pass them to both.
"""

from __future__ import annotations

from .graphs import Graph, bits


def refined_colors(g: Graph) -> tuple[int, ...]:
    """Stable vertex colors under iterated neighborhood-color refinement."""
    nbrs = [list(bits(row)) for row in g.adj]
    colors = list(g.degrees())
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in nbrs[v])))
            for v in range(g.n)
        ]
        ranking = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [ranking[sig] for sig in sigs]
        if new == colors:
            return tuple(new)
        colors = new


def invariant_key(g: Graph, colors: tuple[int, ...]) -> tuple:
    """An isomorphism-invariant bucketing key (not a complete invariant) from
    ``colors = refined_colors(g)``.

    Records the histogram of stable colors together with each color's
    neighbor-color multiset (well defined by stability)."""
    hist: dict[int, int] = {}
    profile: dict[int, tuple[int, ...]] = {}
    for v, c in enumerate(colors):
        hist[c] = hist.get(c, 0) + 1
        if c not in profile:
            profile[c] = tuple(sorted(colors[u] for u in bits(g.adj[v])))
    return (
        g.n,
        g.edge_count(),
        tuple(sorted(hist.items())),
        tuple(sorted(profile.items())),
    )


def are_isomorphic(g: Graph, gc: tuple[int, ...], h: Graph, hc: tuple[int, ...]) -> bool:
    """Whether ``g`` and ``h`` are isomorphic, given their refined colors."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if sorted(gc) != sorted(hc):
        return False
    n = g.n
    # Match most-constrained vertices first: rare colors, then high degree.
    color_count: dict[int, int] = {}
    for c in gc:
        color_count[c] = color_count.get(c, 0) + 1
    order = sorted(range(n), key=lambda v: (color_count[gc[v]], -g.degree(v), v))
    h_by_color: dict[int, list[int]] = {}
    for v in range(n):
        h_by_color.setdefault(hc[v], []).append(v)

    mapping = [-1] * n
    used = [False] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in h_by_color.get(gc[v], ()):
            if used[w]:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if g.has_edge(v, u) != h.has_edge(w, mapping[u]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if place(i + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    return place(0)
