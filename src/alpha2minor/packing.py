"""Exact packing of pairwise disjoint induced 3-vertex paths.

Also houses the four-condition feasibility checker (size, connectivity,
minimum clique capacity, anti-matching) whose conjunction characterizes the
existence of such a packing in graphs with independence number two, up to the
single five-wheel exception at packing size two (Chudnovsky and Seymour,
"Packing seagulls"), and the measure-increasing exchange procedure used by
the hard case of the minor construction.  The clique capacity is the exact
minimum over all cliques, computed once per graph in ``invariants``, and
compared with 2 * ell.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import InvariantViolation, PreconditionError
from .graphs import Graph, bits, closed_neighborhood_mask, is_k_connected, mask_of
from .invariants import (
    alpha_at_most_two,
    chromatic_number_alpha2,
    is_five_wheel,
    minimum_clique_capacity,
)


@dataclass(frozen=True)
class P3Packing:
    """Ordered vertex triples (a1, a2, a3), each inducing the path a1-a2-a3,
    pairwise vertex-disjoint."""

    triples: tuple[tuple[int, int, int], ...]

    def size(self) -> int:
        return len(self.triples)

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
    if count == 0:
        return P3Packing(())
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
    """Evaluation of the four feasibility conditions for packing ``ell``
    disjoint induced 3-vertex paths."""

    ell: int
    size_ok: bool
    connectivity_ok: bool
    min_capacity_clique: frozenset[int]
    min_doubled_capacity: int
    anti_matching_ok: bool
    five_wheel_exception: bool

    @property
    def capacity_ok(self) -> bool:
        return self.min_doubled_capacity >= 2 * self.ell

    @property
    def all_hold(self) -> bool:
        return (
            self.size_ok
            and self.connectivity_ok
            and self.capacity_ok
            and self.anti_matching_ok
        )


def check_packing_conditions(g: Graph, ell: int) -> PackingConditionReport:
    """Evaluate all four packing-feasibility conditions at size ``ell``."""
    if ell < 0:
        raise PreconditionError("packing size must be nonnegative")
    if not alpha_at_most_two(g):
        raise PreconditionError("graph has an independent set of size 3")
    if g.n == 0:
        return PackingConditionReport(
            ell=ell,
            size_ok=(ell == 0),
            connectivity_ok=(ell == 0),
            min_capacity_clique=frozenset(),
            min_doubled_capacity=0,
            anti_matching_ok=(ell == 0),
            five_wheel_exception=False,
        )
    doubled, witness = minimum_clique_capacity(g)
    return PackingConditionReport(
        ell=ell,
        size_ok=g.n >= 3 * ell,
        connectivity_ok=is_k_connected(g, ell),
        min_capacity_clique=witness,
        min_doubled_capacity=doubled,
        # The anti-matching number is the complement's matching number, n - chi.
        anti_matching_ok=g.n - chromatic_number_alpha2(g) >= ell,
        five_wheel_exception=is_five_wheel(g),
    )


def verify_packing_characterization(g: Graph, ell: int) -> bool:
    """True iff an exhaustive packing search and the four-condition test agree.

    The characterization excludes one case by hypothesis: packing size two on
    the five-wheel (all four conditions hold there, yet no packing exists).
    """
    if ell == 2 and is_five_wheel(g):
        raise PreconditionError("the five-wheel at size two is excluded")
    report = check_packing_conditions(g, ell)
    packing = find_p3_packing(g, ell)
    if packing is not None and validate_packing(g, packing):
        return False
    return (packing is not None) == report.all_hold


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
    if not alpha_at_most_two(g):
        raise PreconditionError("graph has an independent set of size 3")
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
