"""Canonical labelling at desk scale: individualisation-refinement with
automorphism pruning, after McKay and Piperno, "Practical graph isomorphism
II", J. Symb. Comput. 60 (2014).

A partition is an ordered list of vertex bitmasks (cells).  Refinement splits
each cell by the number of neighbours its vertices have in a splitter cell,
taking splitters from a work queue until the partition is equitable; the parts
are ordered by that count, never by vertex label, so refining a relabelled
graph gives the relabelled partition.  The search individualises each vertex
of the first non-singleton cell in turn and refines again.  A discrete
partition (a leaf) orders the vertices, and the certificate is the largest
relabelled adjacency over all leaves: an isomorphism invariant, and a complete
one, since it is the graph itself relabelled.

Automorphisms found along the way prune the search without changing the
certificate, because an automorphism maps a subtree onto a subtree with the
same leaf adjacencies.  They are seeded with the transpositions of false twins
(equal rows); a leaf whose relabelled rows equal those of the first leaf or
of the best leaf so far yields one more, and the search jumps back to where
the two paths part.  At each node, a child in the same orbit as an explored
child, under the automorphisms that fix the node's path pointwise, is skipped.

The automorphisms found generate the whole group, which the enumerator's
canonical augmentation needs (``generate``).  Pruning only skips a subtree
that a found automorphism maps onto one searched already.  So at each node of
the first leaf's path, every child in the orbit of the path's own child, under
the automorphisms that fix the path, is either searched, which yields a leaf
equal to the first and an automorphism mapping one child onto the other, or
skipped as the image of a searched one.  The found automorphisms thus move
the path's child through its whole orbit at every level, and these orbit
sizes multiply to the group's order.

The best leaf's vertex order is returned with the certificate.  It is the
canonical order: isomorphic graphs list corresponding vertices in it.
"""

from __future__ import annotations

from collections.abc import Sequence

from .graphs import Graph

Permutation = tuple[int, ...]


def _refine(adj: tuple[int, ...], cells: list[int], queue: list[int]) -> None:
    """Split ``cells`` in place until no cell of ``queue``, nor any part split
    off later, splits a cell further.

    A split cell's parts all join the queue except its first largest, whose
    neighbour counts follow from the others' and the whole cell's."""
    n = len(adj)
    while queue and len(cells) < n:
        w = queue.pop()
        i = 0
        while i < len(cells):
            c = cells[i]
            if not c & (c - 1):
                i += 1
                continue
            by_count: dict[int, int] = {}
            m = c
            while m:
                low = m & -m
                m ^= low
                k = (adj[low.bit_length() - 1] & w).bit_count()
                by_count[k] = by_count.get(k, 0) | low
            if len(by_count) == 1:
                i += 1
                continue
            parts = [by_count[k] for k in sorted(by_count)]
            cells[i : i + 1] = parts
            sizes = [p.bit_count() for p in parts]
            largest = sizes.index(max(sizes))
            queue.extend(p for j, p in enumerate(parts) if j != largest)
            i += len(parts)


def _twin_transpositions(adj: tuple[int, ...]) -> list[Permutation]:
    """Transpositions of consecutive members of each class of false twins."""
    n = len(adj)
    last: dict[int, int] = {}
    gens = []
    for v, row in enumerate(adj):
        u = last.get(row)
        if u is not None:
            perm = list(range(n))
            perm[u], perm[v] = v, u
            gens.append(tuple(perm))
        last[row] = v
    return gens


def _orbit_closure(mask: int, gens: Sequence[Permutation]) -> int:
    """The union of the orbits of the vertices in ``mask`` under ``gens``."""
    frontier = mask
    while frontier:
        images = 0
        for perm in gens:
            m = frontier
            while m:
                low = m & -m
                m ^= low
                images |= 1 << perm[low.bit_length() - 1]
        frontier = images & ~mask
        mask |= frontier
    return mask


def canonical_form(
    g: Graph,
) -> tuple[tuple[int, ...], tuple[Permutation, ...], tuple[int, ...]]:
    """``(certificate, generators, order)``: two graphs have equal
    certificates exactly when they are isomorphic, and each generator ``p``
    (vertex ``v`` goes to ``p[v]``) is an automorphism of ``g``; together they
    generate the automorphism group.  ``order`` lists the vertices as the
    certificate's rows take them, so for isomorphic ``g`` and ``h`` the map
    ``order_g[i] -> order_h[i]`` is an isomorphism."""
    n, adj = g.n, g.adj
    gens = _twin_transpositions(adj)
    cells = [g.vertex_mask()] if n else []
    _refine(adj, cells, cells.copy())
    path: list[int] = []
    # The first and the best leaf so far: (relabelled rows, vertex order, path).
    first = best = None

    def leaf(cells: list[int]) -> int | None:
        """Record a leaf; the depth to jump back to, if it gave an automorphism."""
        nonlocal first, best
        order = [c.bit_length() - 1 for c in cells]
        position = [0] * n
        for i, v in enumerate(order):
            position[v] = 1 << i
        rows = []
        for v in order:
            row, m = 0, adj[v]
            while m:
                low = m & -m
                m ^= low
                row |= position[low.bit_length() - 1]
            rows.append(row)
        rows = tuple(rows)
        if first is None:
            first = best = (rows, order, path.copy())
            return None
        for known_rows, known_order, known_path in (first, best):
            if rows == known_rows:
                perm = [0] * n
                for u, v in zip(known_order, order):
                    perm[u] = v
                gens.append(tuple(perm))
                depth = 0
                for a, b in zip(path, known_path):
                    if a != b:
                        break
                    depth += 1
                return depth
        if rows > best[0]:
            best = (rows, order, path.copy())
        return None

    def search(cells: list[int]) -> int | None:
        """Search below the node ``cells``; the depth to jump back to, if any."""
        if len(cells) == n:
            return leaf(cells)
        depth = len(path)
        i = next(j for j, c in enumerate(cells) if c & (c - 1))
        target = cells[i]
        # Children searched, and their orbits under the automorphisms that fix
        # the path (0 once a search may have found more).
        explored = covered = 0
        m = target
        while m:
            low = m & -m
            m ^= low
            if explored:
                if not covered:
                    fixing = [p for p in gens if all(p[x] == x for x in path)]
                    covered = _orbit_closure(explored, fixing)
                if covered & low:
                    continue
            explored |= low
            covered = 0
            v = low.bit_length() - 1
            child = cells[:i] + [low, target ^ low] + cells[i + 1 :]
            _refine(adj, child, [low])
            path.append(v)
            jump = search(child)
            path.pop()
            if jump is not None and jump < depth:
                return jump
        return None

    search(cells)
    return best[0], tuple(gens), tuple(best[1])
