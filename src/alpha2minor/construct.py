"""Constructive minor pipelines for graphs with independence number two.

Two entry points.  ``construct_half_minor`` produces a model of the join of an
ell-clique with an independent set of size ceil(n/2) - ell whenever
2*ell <= ceil(n/2).  ``construct_chi_minor`` produces the chromatic form, an
ell-clique joined to chi - ell independent branch sets whenever 2*ell <= chi.
Both return certificates whose models are unconditionally re-validated before
being handed out; every step that the underlying mathematics guarantees to
succeed raises :class:`InvariantViolation` with a full state dump if it ever
fails, since such a failure would be a genuine finding and must not be
absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import InvariantViolation, PreconditionError
from .graphs import (
    Graph,
    bits,
    delete_vertices,
    emit_graph6,
    induced_subgraph,
    is_k_connected,
)
from .invariants import (
    alpha_at_most_two,
    chromatic_number_alpha2,
    clique_number,
    co_components,
    critical_vertices,
    max_clique,
)
from .minors import (
    CliqueJoinIndependent,
    MinorModel,
    MinorTarget,
    model_to_json,
    normalized_model,
    validate_model,
)
from .packing import (
    P3Packing,
    check_packing_conditions,
    exchange_improve,
    find_p3_packing,
    uncovered_outside_neighborhood,
)


def ceil_half(n: int) -> int:
    return (n + 1) // 2


@dataclass(frozen=True)
class TraceStep:
    """One constructor decision; ``data`` refers to vertices of the graph the
    step was taken in (recorded as ``graph6``)."""

    kind: str
    data: dict


@dataclass(frozen=True)
class Certificate:
    graph: Graph
    ell: int
    chi: int
    target: MinorTarget
    model: MinorModel
    trace: tuple[TraceStep, ...]
    validated: bool


def certificate_to_json(cert: Certificate) -> dict:
    mj = model_to_json(cert.target, cert.model)
    return {
        "input_graph6": emit_graph6(cert.graph),
        "n": cert.graph.n,
        "alpha_leq_2": alpha_at_most_two(cert.graph),
        "chi": cert.chi,
        "ell": cert.ell,
        "target": mj["target"],
        "model": {
            "clique_side": mj["clique_side"],
            "independent_side": mj["independent_side"],
        },
        "trace": [{"kind": step.kind, **step.data} for step in cert.trace],
        "validated": cert.validated,
    }


# -- shared helpers --------------------------------------------------------


def _invert(old_to_new: dict[int, int]) -> list[int]:
    new_to_old = [0] * len(old_to_new)
    for old, new in old_to_new.items():
        new_to_old[new] = old
    return new_to_old


def _relabel_model(model: MinorModel, new_to_old: Sequence[int]) -> MinorModel:
    lift = lambda s: frozenset(new_to_old[v] for v in s)
    return MinorModel(
        tuple(lift(s) for s in model.clique_side),
        tuple(lift(s) for s in model.independent_side),
    )


def _singleton_model(clique_vertices, independent_vertices) -> MinorModel:
    return MinorModel(
        tuple(frozenset((v,)) for v in clique_vertices),
        tuple(frozenset((v,)) for v in independent_vertices),
    )


def _step(trace: list[TraceStep], kind: str, g: Graph, **data) -> None:
    trace.append(TraceStep(kind, {"graph6": emit_graph6(g), "n": g.n, **data}))


def _finish(
    g: Graph, ell: int, target: MinorTarget, model: MinorModel, trace: list[TraceStep]
) -> Certificate:
    problems = validate_model(g, target, model)
    if problems:
        raise InvariantViolation(
            "constructed model failed validation",
            {"graph6": emit_graph6(g), "ell": ell, "problems": problems},
        )
    return Certificate(
        graph=g,
        ell=ell,
        chi=chromatic_number_alpha2(g),
        target=target,
        model=normalized_model(model),
        trace=tuple(trace),
        validated=True,
    )


def _split_complete_model(kmodel: MinorModel, ell: int) -> MinorModel:
    """View a complete-graph model as a clique-join model: the first ell sets
    become the clique side, the rest the independent side."""
    sets = kmodel.all_sets()
    return MinorModel(tuple(sets[:ell]), tuple(sets[ell:]))


# -- the edge-selection recipe for the hard case ----------------------------


def select_edge_small_case(g: Graph, ell: int) -> tuple[int, int]:
    """An edge (c, x) whose closed neighborhood misses at most ell - 1 vertices.

    Recipe: take non-adjacent x, y and a common neighbor c; everything outside
    N[{c, x}] then lies in the clique V - N[x] minus y, which has at most
    omega(G) - 1 vertices.  Hence whenever omega(G) <= ell the first candidate
    qualifies; the bound is re-checked directly either way.  Scans smallest x,
    then y, then c, so the result is deterministic.  A connected non-complete
    input always yields candidates (some pair lies at distance two); the only
    disconnected graphs with independence number two are two disjoint cliques,
    where no candidate exists and the failure is reported loudly.
    """
    if not alpha_at_most_two(g):
        raise PreconditionError("graph has an independent set of size 3")
    if g.is_complete():
        raise PreconditionError("complete graph has no non-adjacent pair")
    full = g.vertex_mask()
    for x in range(g.n):
        non_nbrs = full & ~g.adj[x] & ~(1 << x) & ~((1 << x) - 1)
        for y in bits(non_nbrs):
            for c in bits(g.adj[x] & g.adj[y]):
                missed = full & ~g.adj[c] & ~g.adj[x] & ~(1 << c) & ~(1 << x)
                if missed.bit_count() <= ell - 1:
                    return (c, x)
    raise InvariantViolation(
        "edge recipe found no qualifying edge",
        {"graph6": emit_graph6(g), "ell": ell, "clique_number": clique_number(g)},
    )


# -- half-order form ---------------------------------------------------------


def construct_half_minor(g: Graph, ell: int) -> Certificate:
    """Certificate for the ell-clique joined to ceil(n/2) - ell independent
    branch sets; requires independence number <= 2 and 2*ell <= ceil(n/2)."""
    if g.n < 1:
        raise PreconditionError("graph must have at least one vertex")
    if not alpha_at_most_two(g):
        raise PreconditionError("graph has an independent set of size 3")
    if ell < 1 or 2 * ell > ceil_half(g.n):
        raise PreconditionError(f"need 1 <= ell and 2*ell <= {ceil_half(g.n)}")
    trace: list[TraceStep] = []
    model = _half_model(g, ell, trace)
    target = CliqueJoinIndependent(ell, ceil_half(g.n) - ell)
    return _finish(g, ell, target, model, trace)


def _half_model(g: Graph, ell: int, trace: list[TraceStep]) -> MinorModel:
    n = g.n
    m = ceil_half(n) - ell
    if g.is_complete():
        _step(trace, "CliqueDirect", g)
        return _singleton_model(range(ell), range(ell, ell + m))
    if n % 2 == 0:
        v = min(range(n), key=lambda x: (g.degree(x), x))
        _step(trace, "DeleteVertexEven", g, vertex=v)
        h, old_to_new = delete_vertices(g, (v,))
        return _relabel_model(_half_model(h, ell, trace), _invert(old_to_new))
    k = ceil_half(n)
    if not is_k_connected(g, k):
        kmodel = _complete_minor_fallback(
            g, trace, "FallbackConnectivity", required_connectivity=k
        )
        return _split_complete_model(kmodel, ell)
    if 4 * clique_number(g) >= n + 3:
        kmodel = _complete_minor_fallback(
            g, trace, "FallbackClique", clique_number=clique_number(g)
        )
        return _split_complete_model(kmodel, ell)
    if n >= 4 * ell + 1:
        packing = find_p3_packing(g, ell)
        if packing is None:
            raise InvariantViolation(
                "guaranteed path packing not found",
                {"graph6": emit_graph6(g), "ell": ell},
            )
        outside = [v for v in range(n) if not (packing.vertex_mask() >> v) & 1]
        chosen = outside[:m]
        _step(
            trace,
            "PackAndContract",
            g,
            triples=[list(t) for t in packing.triples],
            independent=chosen,
        )
        return MinorModel(
            tuple(frozenset(t) for t in packing.triples),
            tuple(frozenset((v,)) for v in chosen),
        )
    if n != 4 * ell - 1:
        raise InvariantViolation(
            "case analysis missed a vertex count", {"n": n, "ell": ell}
        )
    return _small_case_model(g, ell, trace)


def _complete_minor_fallback(
    g: Graph, trace: list[TraceStep], kind: str, **data
) -> MinorModel:
    """The K_k model of ``_clique_plus_seagulls``, recorded under ``kind``
    together with ``data``."""
    clique, triples = _clique_plus_seagulls(g)
    _step(
        trace, kind, g, **data, clique=list(clique), triples=[list(t) for t in triples]
    )
    return MinorModel(
        tuple(frozenset((v,)) for v in clique) + tuple(frozenset(t) for t in triples)
    )


@lru_cache(maxsize=64)
def _clique_plus_seagulls(
    g: Graph,
) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """A K_k model, k = ceil(n/2), from a clique W of G, truncated to k
    vertices, plus k - |W| disjoint induced 3-vertex paths ("seagulls") in
    G - W: W and the seagulls, in vertices of G.

    A seagull's ends are non-adjacent, so with independence number two every
    other vertex sees one of them: each seagull dominates G, and the
    singletons of W and the seagulls are pairwise joined connected sets
    (Chudnovsky and Seymour, "Packing seagulls").  Nothing here depends on
    ell, so it is built once per graph."""
    k = ceil_half(g.n)
    clique = sorted(max_clique(g)[1])[:k]
    h, old_to_new = delete_vertices(g, clique)
    packing = find_p3_packing(h, k - len(clique))
    if packing is None:
        raise InvariantViolation(
            "seagull packing beside the clique not found",
            {
                "graph6": emit_graph6(g),
                "k": k,
                "clique": clique,
                "conditions": check_packing_conditions(h, k - len(clique)),
            },
        )
    new_to_old = _invert(old_to_new)
    return tuple(clique), tuple(
        tuple(new_to_old[v] for v in t) for t in packing.triples
    )


def _small_case_model(g: Graph, ell: int, trace: list[TraceStep]) -> MinorModel:
    """The n = 4*ell - 1 hard case: contract one chosen edge and ell - 1
    disjoint induced paths; the ell leftover vertices, driven inside the
    edge's closed neighborhood by exchanges, form the independent side."""
    u, v = select_edge_small_case(g, ell)
    gp, old_to_new = delete_vertices(g, (u, v))
    sub = find_p3_packing(gp, ell - 1)
    if sub is None:
        raise InvariantViolation(
            "guaranteed path packing not found after edge removal",
            {"graph6": emit_graph6(g), "edge": (u, v), "ell": ell},
        )
    new_to_old = _invert(old_to_new)
    lifted = P3Packing(
        tuple((new_to_old[a], new_to_old[b], new_to_old[c]) for a, b, c in sub.triples)
    )
    packing = exchange_improve(g, (u, v), lifted)
    stray = uncovered_outside_neighborhood(g, (u, v), packing)
    if stray:
        raise InvariantViolation(
            "exchange fixpoint left vertices outside the edge neighborhood",
            {
                "graph6": emit_graph6(g),
                "edge": (u, v),
                "triples": packing.triples,
                "stray": sorted(stray),
            },
        )
    covered = packing.vertex_mask() | (1 << u) | (1 << v)
    leftover = sorted(bits(g.vertex_mask() & ~covered))
    if len(leftover) != ell:
        raise InvariantViolation(
            "leftover set has the wrong size",
            {"graph6": emit_graph6(g), "edge": (u, v), "leftover": leftover},
        )
    _step(
        trace,
        "SmallCaseEdge",
        g,
        edge=[u, v],
        triples=[list(t) for t in packing.triples],
        independent=leftover,
    )
    return MinorModel(
        (frozenset((u, v)),) + tuple(frozenset(t) for t in packing.triples),
        tuple(frozenset((b,)) for b in leftover),
    )


# -- chromatic form -----------------------------------------------------------


def construct_chi_minor(g: Graph, ell: int) -> Certificate:
    """Certificate for the ell-clique joined to chi(G) - ell independent
    branch sets; requires independence number <= 2 and 2*ell <= chi(G)."""
    if not alpha_at_most_two(g):
        raise PreconditionError("graph has an independent set of size 3")
    chi = chromatic_number_alpha2(g)
    if ell < 1 or 2 * ell > chi:
        raise PreconditionError(f"need 1 <= ell and 2*ell <= chi = {chi}")
    trace: list[TraceStep] = []
    model = _chi_model(g, ell, chi, trace)
    target = CliqueJoinIndependent(ell, chi - ell)
    return _finish(g, ell, target, model, trace)


def _chi_model(g: Graph, ell: int, chi: int, trace: list[TraceStep]) -> MinorModel:
    n = g.n
    if g.is_complete():
        _step(trace, "CliqueDirect", g)
        return _singleton_model(range(ell), range(ell, chi))
    if ell == 1:
        w = max(range(n), key=lambda x: (g.degree(x), -x))
        leaves = sorted(bits(g.adj[w]))[: chi - 1]
        if len(leaves) < chi - 1:
            raise InvariantViolation(
                "maximum degree below chi - 1",
                {"graph6": emit_graph6(g), "chi": chi},
            )
        _step(trace, "MaxDegreeStar", g, center=w, leaves=leaves)
        return _singleton_model((w,), leaves)
    if n >= 2 * chi - 1:
        if chi != ceil_half(n):
            raise InvariantViolation(
                "chromatic number must equal ceil(n/2) when n >= 2*chi - 1",
                {"graph6": emit_graph6(g), "chi": chi},
            )
        _step(trace, "DelegateHalf", g)
        return _half_model(g, ell, trace)
    core, lift, deletions = _noncritical_chain(g)
    for graph6, size, x in deletions:
        trace.append(
            TraceStep(
                "DeleteNoncriticalVertex", {"graph6": graph6, "n": size, "vertex": x}
            )
        )
    if core.is_complete():
        _step(trace, "CliqueDirect", core)
        model = _singleton_model(range(ell), range(ell, chi))
    else:
        model = _critical_join_model(core, ell, chi, trace)
    return _relabel_model(model, lift) if deletions else model


@lru_cache(maxsize=64)
def _noncritical_chain(
    g: Graph,
) -> tuple[Graph, tuple[int, ...], tuple[tuple[str, int, int], ...]]:
    """Delete the lowest vertex outside the complement's Gallai-Edmonds set D
    until every vertex is in D.  Returns the vertex-critical core, the lift
    from the core's vertices to those of ``g``, and each deletion as the
    (graph6, n, vertex) of the graph it was made in.

    Only the core's branch depends on ell: along the chain n falls while chi
    stays, so no earlier test of ``_chi_model`` fires there, and a complete
    graph, whose vertices are all in D, can only be the core."""
    chi = chromatic_number_alpha2(g)
    lift = tuple(range(g.n))
    deletions = []
    while True:
        noncritical = g.vertex_mask() & ~critical_vertices(g)
        if not noncritical:
            return g, lift, tuple(deletions)
        x = (noncritical & -noncritical).bit_length() - 1
        h, _ = delete_vertices(g, (x,))
        if chromatic_number_alpha2(h) != chi:
            raise InvariantViolation(
                "deleting a vertex outside the Gallai-Edmonds set lowered chi",
                {"graph6": emit_graph6(g), "chi": chi, "vertex": x},
            )
        deletions.append((emit_graph6(g), g.n, x))
        lift = lift[:x] + lift[x + 1 :]
        g = h


@lru_cache(maxsize=64)
def _join_split(
    g: Graph,
) -> tuple[tuple[Graph, tuple[int, ...], int], tuple[Graph, tuple[int, ...], int]]:
    """A vertex-critical graph on at most 2*chi - 2 vertices as a join: its
    first co-component against the rest.  Each side is its factor graph, the
    sorted vertices of ``g`` it came from (also the factor's lift) and its
    chromatic number."""
    chi = chromatic_number_alpha2(g)
    comps = co_components(g)
    if len(comps) == 1:
        raise InvariantViolation(
            "critical graph on fewer than 2*chi - 1 vertices is anti-connected",
            {"graph6": emit_graph6(g), "chi": chi},
        )
    side1 = tuple(sorted(comps[0]))
    side2 = tuple(v for v in range(g.n) if v not in comps[0])
    g1, _ = induced_subgraph(g, side1)
    g2, _ = induced_subgraph(g, side2)
    chi1 = chromatic_number_alpha2(g1)
    chi2 = chromatic_number_alpha2(g2)
    if chi1 + chi2 != chi:
        raise InvariantViolation(
            "join did not add chromatic numbers",
            {"graph6": emit_graph6(g), "chi": (chi, chi1, chi2)},
        )
    return (g1, side1, chi1), (g2, side2, chi2)


def _critical_join_model(
    g: Graph, ell: int, chi: int, trace: list[TraceStep]
) -> MinorModel:
    """Every vertex is in D, so G is vertex-critical, and n <= 2*chi - 2: the
    complement is disconnected and G splits as a join."""
    part1, part2 = _join_split(g)
    (g1, side1, chi1), (g2, side2, chi2) = part1, part2
    for l1 in range(1, ell):
        l2 = ell - l1
        if 2 * l1 <= chi1 and 2 * l2 <= chi2:
            _step(
                trace,
                "JoinDecompose",
                g,
                side1=list(side1),
                side2=list(side2),
                split=[l1, l2],
            )
            m1 = _relabel_model(_chi_model(g1, l1, chi1, trace), side1)
            m2 = _relabel_model(_chi_model(g2, l2, chi2, trace), side2)
            return MinorModel(
                m1.clique_side + m2.clique_side,
                m1.independent_side + m2.independent_side,
            )
    if g1.is_complete() or g2.is_complete():
        return _clique_absorb_model(g, ell, chi, trace, part1, part2)
    return _parity_glue_model(g, ell, chi, trace, part1, part2)


def _clique_absorb_model(g, ell, chi, trace, part1, part2) -> MinorModel:
    """One join factor is a clique: its vertices dominate the graph and can be
    placed directly on either side of the model."""
    if part1[0].is_complete():
        (ck, cverts, _), (other, overts, chi_other) = part1, part2
    else:
        (ck, cverts, _), (other, overts, chi_other) = part2, part1
    c = ck.n
    _step(trace, "CliqueAbsorb", g, clique_part=list(cverts), absorbed=min(ell, c))
    if ell <= c:
        clique_side = cverts[:ell]
        independent = cverts[ell:] + overts[:chi_other]
        return _singleton_model(clique_side, independent)
    sub = _chi_model(other, ell - c, chi_other, trace)
    lifted = _relabel_model(sub, overts)
    return MinorModel(
        lifted.clique_side + tuple(frozenset((v,)) for v in cverts),
        lifted.independent_side,
    )


def _parity_glue_model(g, ell, chi, trace, part1, part2) -> MinorModel:
    """Neither factor splits or is a clique: both factor chromatic numbers are
    odd, chi = 2*ell, and deleting a suitable non-adjacent pair from each
    factor drops its chromatic number by exactly one.  The two pairs are glued
    across the join into two dominating branch sets, one per side."""
    g1, lift1, chi1 = part1
    g2, lift2, chi2 = part2
    if not (chi == 2 * ell and chi1 % 2 == 1 and chi2 % 2 == 1):
        raise InvariantViolation(
            "parity case reached without odd factor chromatic numbers",
            {"graph6": emit_graph6(g), "chi": (chi, chi1, chi2), "ell": ell},
        )
    if chi1 < 3 or chi2 < 3:
        raise InvariantViolation(
            "parity case reached with a trivially colorable factor",
            {"graph6": emit_graph6(g), "chi": (chi, chi1, chi2)},
        )
    halves = []
    pairs_g = []
    for gi, lifti, chii in ((g1, lift1, chi1), (g2, lift2, chi2)):
        li = (chii - 1) // 2
        pair = _critical_nonadjacent_pair(gi, chii)
        if pair is None:
            raise InvariantViolation(
                "no non-adjacent pair keeps the factor chromatic number up",
                {"graph6": emit_graph6(gi), "chi": chii},
            )
        ui, vi = pair
        hi, old_to_new = delete_vertices(gi, (ui, vi))
        sub = _chi_model(hi, li, chii - 1, trace)
        in_gi = _relabel_model(sub, _invert(old_to_new))
        halves.append(_relabel_model(in_gi, lifti))
        pairs_g.append((lifti[ui], lifti[vi]))
    (u1, v1), (u2, v2) = pairs_g
    _step(
        trace,
        "ParityGlue",
        g,
        side1_pair=[u1, v1],
        side2_pair=[u2, v2],
        glued_clique_pair=sorted((u1, u2)),
        glued_independent_pair=sorted((v1, v2)),
    )
    clique = (
        halves[0].clique_side + halves[1].clique_side + (frozenset((u1, u2)),)
    )
    independent = (
        halves[0].independent_side
        + halves[1].independent_side
        + (frozenset((v1, v2)),)
    )
    return MinorModel(clique, independent)


def _critical_nonadjacent_pair(gi: Graph, chii: int) -> tuple[int, int] | None:
    """Lexicographically first non-adjacent pair whose one-by-one and joint
    deletions all leave chromatic number chii - 1.  The vertices whose
    deletion alone does that are the Gallai-Edmonds set D of the
    complement."""
    singles = critical_vertices(gi)
    for x in bits(singles):
        for y in bits(singles & ~gi.adj[x] & ~((2 << x) - 1)):
            h, _ = delete_vertices(gi, (x, y))
            if chromatic_number_alpha2(h) == chii - 1:
                return (x, y)
    return None
