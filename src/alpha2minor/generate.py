"""Test universes: graphs with independence number at most two.

Such graphs are exactly the complements of triangle-free graphs, so the
exhaustive stream is produced by growing triangle-free graphs one vertex at a
time (the new vertex's neighborhood must be an independent set) and keeping
one representative per isomorphism class, then complementing.  The random
stream complements random maximal triangle-free graphs, which guarantees the
independence bound by construction instead of rejection sampling.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .errors import PreconditionError
from .graphs import Graph, bits, complement
from .iso import are_isomorphic, invariant_key

EXHAUSTIVE_CAP_DEFAULT = 10


def _independent_sets(g: Graph) -> list[int]:
    """All independent-set masks of ``g`` (including the empty set)."""
    out = []

    def extend(mask: int, candidates: int) -> None:
        out.append(mask)
        while candidates:
            vbit = candidates & -candidates
            candidates ^= vbit
            v = vbit.bit_length() - 1
            extend(mask | vbit, candidates & ~g.adj[v])

    extend(0, g.vertex_mask())
    return sorted(out)


def _extend_with_vertex(g: Graph, nbr_mask: int) -> Graph:
    """Add vertex n adjacent to ``nbr_mask``."""
    n = g.n
    rows = list(g.adj)
    new_row = nbr_mask
    for v in bits(nbr_mask):
        rows[v] |= 1 << n
    rows.append(new_row)
    return Graph(n + 1, tuple(rows))


class _IsoClasses:
    """Representatives of isomorphism classes, bucketed by invariant key."""

    def __init__(self):
        self.buckets: dict[tuple, list[Graph]] = {}
        self.order: list[Graph] = []

    def add(self, g: Graph) -> bool:
        key = invariant_key(g)
        bucket = self.buckets.setdefault(key, [])
        for seen in bucket:
            if are_isomorphic(g, seen):
                return False
        bucket.append(g)
        self.order.append(g)
        return True


@lru_cache(maxsize=32)
def _triangle_free_classes(n: int, reverse_order: bool = False) -> tuple[Graph, ...]:
    """One representative per isomorphism class of triangle-free graphs on n
    vertices.  ``reverse_order`` changes the augmentation order only; the set
    of classes must not change (exercised by tests)."""
    if n == 0:
        return (Graph(0, ()),)
    level: tuple[Graph, ...] = (Graph(1, (0,)),)
    for _ in range(n - 1):
        classes = _IsoClasses()
        parents = reversed(level) if reverse_order else level
        for parent in parents:
            extensions = _independent_sets(parent)
            if reverse_order:
                extensions = list(reversed(extensions))
            for nbr_mask in extensions:
                classes.add(_extend_with_vertex(parent, nbr_mask))
        level = tuple(classes.order)
    return level


def enumerate_alpha2(n: int, *, cap: int = EXHAUSTIVE_CAP_DEFAULT) -> list[Graph]:
    """All graphs on n vertices with independence number <= 2, one per
    isomorphism class: the complements of the triangle-free graphs on n
    vertices.  Deterministic order."""
    if n < 0:
        raise PreconditionError("vertex count must be nonnegative")
    if n > cap:
        raise PreconditionError(f"exhaustive enumeration capped at n = {cap}")
    return [complement(g) for g in _triangle_free_classes(n)]


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


# -- named graphs -----------------------------------------------------------


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


_NAMED = {
    "cycle": cycle,
    "complete": complete,
    "path": path,
    "five_wheel": five_wheel,
    "clique_join_independent": clique_join_independent_graph,
    "petersen": petersen,
    "petersen_complement": petersen_complement,
    "join": join,
}


def named(name: str, *params) -> Graph:
    """Standard labeled constructions by name; see ``_NAMED`` for the roster."""
    try:
        builder = _NAMED[name]
    except KeyError:
        raise PreconditionError(
            f"unknown graph name {name!r}; choose from {sorted(_NAMED)}"
        ) from None
    try:
        return builder(*params)
    except TypeError as exc:
        raise PreconditionError(f"bad parameters for {name!r}: {exc}") from None
