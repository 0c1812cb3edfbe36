"""Exact packing of pairwise disjoint induced 3-vertex paths.

Also houses the four-condition feasibility checker (size, connectivity,
minimum clique capacity, anti-matching) whose conjunction characterizes the
existence of such a packing in graphs with independence number two, up to the
single five-wheel exception at packing size two (Chudnovsky and Seymour,
"Packing seagulls"), and the measure-increasing exchange procedure used by
the hard case of the minor construction.  Each condition is a bound on the
packing size ell, so the checker asks it once per graph and reports the
largest ell it allows; the clique capacity is the exact minimum over all
cliques, computed in ``invariants``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import InvariantViolation, PreconditionError
from .graphs import Graph, bits, closed_neighborhood_mask, mask_of
from .invariants import (
    _connectivity,
    _require_alpha2,
    chromatic_number_alpha2,
    is_five_wheel,
    minimum_clique_capacity,
)


@dataclass(frozen=True)
class P3Packing:
    """Ordered vertex triples (a1, a2, a3), each inducing the path a1-a2-a3,
    pairwise vertex-disjoint."""

    triples: tuple[tuple[int, int, int], ...]

    def vertex_mask(self) -> int:
        return mask_of(v for t in self.triples for v in t)


def validate_packing(g: Graph, packing: P3Packing) -> list[str]:
    """Independent validity check; returns human-readable violations."""
    problems = []
    seen: set[int] = set()
    for t in packing.triples:
        a1, a2, a3 = t
        if len({a1, a2, a3}) != 3:
            problems.append(f"triple {t} has repeated vertices")
            continue
        if any(not 0 <= v < g.n for v in t):
            problems.append(f"triple {t} out of range")
            continue
        if not (g.has_edge(a1, a2) and g.has_edge(a2, a3)) or g.has_edge(a1, a3):
            problems.append(f"triple {t} does not induce a 3-vertex path")
        overlap = seen.intersection(t)
        if overlap:
            problems.append(f"triple {t} reuses vertices {sorted(overlap)}")
        seen.update(t)
    return problems


def _seagulls_at(g: Graph, v: int, remaining: int) -> Iterator[tuple[int, int, int]]:
    """The induced 3-vertex paths (a1, a2, a3), a1 < a3, inside ``remaining``
    that contain its lowest vertex v, in lexicographic order: first those
    starting at v, then those centred at v.  None can end at v."""
    nbrs = g.adj[v] & remaining
    for a2 in bits(nbrs):
        for a3 in bits(g.adj[a2] & remaining & ~nbrs & ~(1 << v)):
            yield (v, a2, a3)
    for a1 in bits(nbrs):
        for a3 in bits(nbrs & ~g.adj[a1] & ~((2 << a1) - 1)):
            yield (a1, v, a3)


def find_p3_packing(g: Graph, count: int) -> P3Packing | None:
    """A packing of exactly ``count`` disjoint induced 3-vertex paths, or
    ``None`` when none exists.  Exhaustive: no false negatives.

    Depth-first search branching on the lowest-index undecided vertex, which
    is either covered by one of its induced paths inside the undecided set
    (generated lazily, in lexicographic order) or discarded; failed
    (undecided-set, remaining-count) states are memoized.
    """
    if count < 0:
        raise PreconditionError("packing size must be nonnegative")
    if 3 * count > g.n:
        return None
    failed: set[tuple[int, int]] = set()

    def search(remaining: int, need: int) -> list[tuple[int, int, int]] | None:
        if need == 0:
            return []
        if remaining.bit_count() < 3 * need:
            return None
        key = (remaining, need)
        if key in failed:
            return None
        v = (remaining & -remaining).bit_length() - 1
        vbit = 1 << v
        for t in _seagulls_at(g, v, remaining):
            rest = search(remaining & ~mask_of(t), need - 1)
            if rest is not None:
                return [t] + rest
        rest = search(remaining & ~vbit, need)
        if rest is not None:
            return rest
        failed.add(key)
        return None

    found = search(g.vertex_mask(), count)
    return None if found is None else P3Packing(tuple(found))


@dataclass(frozen=True)
class PackingConditionReport:
    """The four packing-feasibility conditions of one graph, each a bound on
    the packing size ell: ``size`` = n // 3 (n >= 3 ell), ``connectivity`` =
    min(kappa, size) (kappa >= ell), ``min_doubled_capacity``, attained at
    ``min_capacity_clique`` (it is >= 2 ell), and ``anti_matching`` = n - chi
    (n - chi >= ell).  ``holds(ell)`` is their conjunction, which predicts a
    packing of ell paths except on the five-wheel at ell = 2."""

    size: int
    connectivity: int
    min_doubled_capacity: int
    min_capacity_clique: frozenset[int]
    anti_matching: int
    five_wheel_exception: bool

    def holds(self, ell: int) -> bool:
        if ell < 0:
            raise PreconditionError("packing size must be nonnegative")
        return (
            ell <= min(self.size, self.connectivity, self.anti_matching)
            and 2 * ell <= self.min_doubled_capacity
        )


def check_packing_conditions(g: Graph) -> PackingConditionReport:
    """Evaluate the four packing-feasibility conditions, once per graph."""
    _require_alpha2(g)
    size = g.n // 3
    # The empty graph has no clique; every condition then allows only ell = 0.
    doubled, witness = minimum_clique_capacity(g) if g.n else (0, frozenset())
    return PackingConditionReport(
        size=size,
        # No ell above ``size`` needs kappa.
        connectivity=_connectivity(g, size),
        min_doubled_capacity=doubled,
        min_capacity_clique=witness,
        # The anti-matching number is the complement's matching number, n - chi.
        anti_matching=g.n - chromatic_number_alpha2(g),
        five_wheel_exception=is_five_wheel(g),
    )


def exchange_improve(
    g: Graph, edge: tuple[int, int], packing: P3Packing
) -> P3Packing:
    """Drive a packing in G minus {u, v} to an exchange fixpoint.

    While some vertex b lies outside both the packing and the closed
    neighborhood of {u, v}, and some packed path sits entirely inside that
    neighborhood, one path is rewritten to absorb b.  Each rewrite moves one
    covered neighborhood vertex out of the packing and b in, so the number of
    neighborhood vertices not covered by the packing strictly increases;
    hence at most n rewrites occur.  Scans are in increasing index order for
    reproducibility.
    """
    u, v = edge
    if not g.has_edge(u, v):
        raise PreconditionError(f"({u}, {v}) is not an edge")
    _require_alpha2(g)
    problems = validate_packing(g, packing)
    if problems:
        raise PreconditionError(f"invalid packing: {problems[0]}")
    uv_mask = (1 << u) | (1 << v)
    if packing.vertex_mask() & uv_mask:
        raise PreconditionError("packing must avoid the contracted edge")

    closed = closed_neighborhood_mask(g, uv_mask)
    triples = list(packing.triples)
    measure = (closed & ~packing.vertex_mask()).bit_count()
    for _ in range(g.n + 1):
        covered = mask_of(x for t in triples for x in t)
        bad = g.vertex_mask() & ~closed & ~covered & ~uv_mask
        if not bad:
            break
        b = (bad & -bad).bit_length() - 1
        replaced = False
        for idx, (a1, a2, a3) in enumerate(triples):
            if (mask_of((a1, a2, a3)) & closed) != mask_of((a1, a2, a3)):
                continue
            e1 = g.has_edge(b, a1)
            e2 = g.has_edge(b, a2)
            e3 = g.has_edge(b, a3)
            if e1 and e3:
                new = (a3, b, a1)
            elif e1 and not e2:
                new = (a2, a1, b)
            elif e1 and e2:
                new = (a3, a2, b)
            elif e3 and not e2:
                new = (a2, a3, b)
            elif e3 and e2:
                new = (a1, a2, b)
            else:
                # b would be independent from both non-adjacent endpoints,
                # impossible once independence number <= 2 was checked.
                raise InvariantViolation(
                    "exchange case analysis fell through",
                    {"edge": edge, "triple": (a1, a2, a3), "b": b},
                )
            triples[idx] = new
            replaced = True
            break
        if not replaced:
            break  # fixpoint: no packed path lies inside the neighborhood
        covered = mask_of(x for t in triples for x in t)
        new_measure = (closed & ~covered).bit_count()
        if new_measure <= measure:
            raise InvariantViolation(
                "exchange did not increase the uncovered-neighborhood measure",
                {"edge": edge, "measure": measure, "triples": tuple(triples)},
            )
        measure = new_measure
    else:
        raise InvariantViolation(
            "exchange loop exceeded the vertex-count bound",
            {"edge": edge, "triples": tuple(triples)},
        )
    result = P3Packing(tuple(triples))
    leftover_problems = validate_packing(g, result)
    if leftover_problems:
        raise InvariantViolation(
            "exchange produced an invalid packing", {"problems": leftover_problems}
        )
    return result


def uncovered_outside_neighborhood(
    g: Graph, edge: tuple[int, int], packing: P3Packing
) -> frozenset[int]:
    """Vertices left over by the packing and the edge that are not dominated
    by the edge; empty iff the leftover set lies inside N[{u, v}]."""
    uv_mask = (1 << edge[0]) | (1 << edge[1])
    closed = closed_neighborhood_mask(g, uv_mask)
    leftover = g.vertex_mask() & ~packing.vertex_mask() & ~uv_mask
    return frozenset(bits(leftover & ~closed))
