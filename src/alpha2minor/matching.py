"""Maximum cardinality matching in general graphs (blossom contraction).

The classic augmenting-path algorithm with blossom shrinking, O(V^3).  The
chromatic number of a graph with independence number two reduces to a maximum
matching in its complement, and complements of such graphs are arbitrary
triangle-free graphs, so a general matcher (not a bipartite one) is required.
"""

from __future__ import annotations

from collections import deque

from .graphs import Graph, bits


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
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_augmenting_path(root: int) -> int:
        for i in range(n):
            used[i] = False
            p[i] = -1
            base[i] = i
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # An odd cycle: shrink the blossom to its base.
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
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    queue.append(match[to])
        return -1

    for v in range(n):
        if match[v] == -1:
            u = find_augmenting_path(v)
            while u != -1:
                pv = p[u]
                ppv = match[pv]
                match[u] = pv
                match[pv] = u
                u = ppv

    return [(v, match[v]) for v in range(n) if match[v] > v]
