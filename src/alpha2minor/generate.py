"""Test universes: graphs with independence number at most two.

Such graphs are exactly the complements of triangle-free graphs, so the
exhaustive stream is produced by growing triangle-free graphs one vertex at a
time (the new vertex's neighborhood must be an independent set) and keeping
one representative per isomorphism class, then complementing.

Classes are kept apart by canonical augmentation (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998), so no candidate is compared
with another.  A parent P is extended by one independent set S per orbit of
its automorphisms (the first in sorted order), and the child C = P + S is
kept only when its new vertex v lies in the orbit of C's canonical deletion
vertex m: the first vertex, in C's canonical order (``iso.canonical_form``),
of those with the largest (degree, sum of neighbour degrees).  m is chosen
the same way in every graph isomorphic to C, so C - v is isomorphic to C - m
and hence to one parent only, and an isomorphism between two kept children
of P can be chosen to map one new vertex onto the other, where it restricts
to an automorphism of P taking one set onto the other: one child per class.
Most children are settled before any labelling: v must have the largest
degree, so |S| is at least the degree of every vertex outside S and one more
than that of every vertex in S, and a v alone with its (degree, sum) needs no
tie break.  Each child is decided alone, so the classes stream depth first,
and a kept child hands the generators of its one labelling to its children.

Both groups must be whole.  A subgroup of Aut(P) splits an orbit of sets, and
the two children it yields both pass the test; a subgroup of Aut(C) splits
m's orbit, and a child whose v is only in the whole orbit is lost.  The
labelling's generators generate the whole group (see ``iso``).  Each class
is kept as its one child that passes the test, so the representatives follow
the canonical labelling: the classes are fixed, the members kept are not.

The random stream complements random maximal triangle-free graphs, which
guarantees the independence bound by construction instead of rejection
sampling.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from .errors import PreconditionError
from .graphs import Graph, _graph_unchecked, bits, complement, independent_sets
from .iso import Permutation, _orbit_closure, canonical_form

EXHAUSTIVE_CAP_DEFAULT = 11

def _extend_with_vertex(g: Graph, nbr_mask: int) -> Graph:
    """Add vertex n adjacent to ``nbr_mask``."""
    n = g.n
    rows = list(g.adj)
    for v in bits(nbr_mask):
        rows[v] |= 1 << n
    rows.append(nbr_mask)
    return _graph_unchecked(n + 1, tuple(rows))


def _orbit_representatives(masks: list[int], gens) -> list[int]:
    """The first mask of each orbit of ``masks`` under the vertex
    permutations ``gens``, which must map ``masks`` onto itself."""
    seen: set[int] = set()
    reps = []
    for mask in masks:
        if mask in seen:
            continue
        reps.append(mask)
        seen.add(mask)
        orbit = [mask]
        for x in orbit:
            for perm in gens:
                y, m = 0, x
                while m:
                    low = m & -m
                    m ^= low
                    y |= 1 << perm[low.bit_length() - 1]
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
    return reps


def _is_canonical_deletion(g: Graph, want_gens: bool) -> tuple[Permutation, ...] | None:
    """``None`` unless the last vertex of ``g`` is in the orbit of the
    canonical deletion vertex; else Aut(g)'s generators, if a tie break
    labelled ``g`` or ``want_gens`` asks, and ``()`` if not."""
    v = g.n - 1
    deg = g.degrees()
    top = deg[v]
    if max(deg) > top:
        return None
    key = {x: sum(deg[y] for y in bits(g.adj[x])) for x in range(g.n) if deg[x] == top}
    if key[v] < max(key.values()):
        return None
    tied = [x for x in key if key[x] == key[v]]
    if len(tied) == 1:
        return canonical_form(g)[1] if want_gens else ()
    _, gens, order = canonical_form(g)
    m = next(x for x in order if x in tied)
    return gens if _orbit_closure(1 << m, gens) >> v & 1 else None


def _triangle_free_classes(max_n: int, parent: Graph = Graph(0, ()), gens=()) -> Iterator[Graph]:
    """One representative per isomorphism class of triangle-free graphs on at
    most ``max_n`` vertices, depth first from ``parent``, whose automorphisms
    ``gens`` generate: the parent, then the subtrees of its children, by
    their independent sets in sorted order, one per orbit, that pass the
    canonical deletion test."""
    yield parent
    if parent.n == max_n:
        return
    deg = parent.degrees()
    # |S| is invariant under automorphisms, so filtering keeps orbits whole.
    top = max(deg, default=0)
    sets = [s for s in independent_sets(parent) if s.bit_count() >= top]
    for nbr_mask in _orbit_representatives(sets, gens):
        size = nbr_mask.bit_count()
        if any(deg[x] >= size for x in bits(nbr_mask)):
            continue
        child = _extend_with_vertex(parent, nbr_mask)
        child_gens = _is_canonical_deletion(child, child.n < max_n)
        if child_gens is not None:
            yield from _triangle_free_classes(max_n, child, child_gens)


def enumerate_alpha2(*orders: int, cap: int = EXHAUSTIVE_CAP_DEFAULT) -> Iterator[Graph]:
    """The graphs with independence number <= 2 on each number of vertices in
    ``orders``, one per isomorphism class: the complements of the
    triangle-free graphs, streamed from one pass up to the largest order.
    Each order's graphs come in the order they have when it is asked alone.
    A bad order raises here, before the stream starts."""
    if not orders:
        raise PreconditionError("no vertex count given")
    if min(orders) < 0:
        raise PreconditionError("vertex count must be nonnegative")
    if max(orders) > cap:
        raise PreconditionError(f"exhaustive enumeration capped at n = {cap}")
    return (complement(g) for g in _triangle_free_classes(max(orders)) if g.n in orders)


def random_alpha2(n: int, seed: int) -> Graph:
    """Complement of a random maximal triangle-free graph on n vertices;
    a deterministic function of (n, seed)."""
    if n < 1:
        raise PreconditionError("vertex count must be positive")
    rng = random.Random(f"alpha2:{n}:{seed}")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    rows = [0] * n
    # One pass suffices: a rejected pair stays rejected once its common
    # neighbor exists, since edges are never removed.
    for u, v in pairs:
        if not rows[u] & rows[v]:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return complement(Graph(n, tuple(rows)))
