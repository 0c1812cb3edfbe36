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
from types import MappingProxyType
from typing import Mapping, Sequence

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
    _chromatic_number,
    _critical_vertices,
    _require_alpha2,
    alpha_at_most_two,
    chromatic_number_alpha2,
    clique_number,
    co_components,
    max_clique,
)
from .minors import (
    CliqueJoinIndependent,
    MinorModel,
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


# Every kind of step a certificate's trace can record: the half form's, then
# those only the chromatic form takes.
TRACE_KINDS = (
    "CliqueDirect", "DeleteVertexEven", "FallbackConnectivity", "FallbackClique",
    "PackAndContract", "SmallCaseEdge", "MaxDegreeStar", "DelegateHalf",
    "DeleteNoncriticalVertex", "JoinDecompose", "CliqueAbsorb", "ParityGlue",
)


@dataclass(frozen=True)
class TraceStep:
    """One constructor decision; ``data`` refers to vertices of the graph the
    step was taken in (recorded as ``graph6``).  ``data`` is read-only, with
    tuples for lists, since cached steps are shared by certificates."""

    kind: str
    data: Mapping[str, object]


@dataclass(frozen=True)
class Certificate:
    graph: Graph
    ell: int
    chi: int
    target: CliqueJoinIndependent
    model: MinorModel
    trace: tuple[TraceStep, ...]
    validated: bool


@lru_cache(maxsize=64)
def cached_graph6(g: Graph) -> str:
    """``emit_graph6(g)``, cached: the certificates of one graph, one per ell,
    record the graph6 of the same few graphs."""
    return emit_graph6(g)


def certificate_to_json(cert: Certificate) -> dict:
    # ``_finish`` stored the model normalized: its sides are already sorted.
    return {
        "input_graph6": cached_graph6(cert.graph),
        "n": cert.graph.n,
        "alpha_leq_2": alpha_at_most_two(cert.graph),
        "chi": cert.chi,
        "ell": cert.ell,
        "target": {"ell": cert.target.ell, "m": cert.target.m},
        "model": {
            "clique_side": [sorted(s) for s in cert.model.clique_side],
            "independent_side": [sorted(s) for s in cert.model.independent_side],
        },
        "trace": [{"kind": step.kind, **step.data} for step in cert.trace],
        "validated": cert.validated,
    }


# -- shared helpers --------------------------------------------------------


def _relabel_model(model: MinorModel, lift: Sequence[int]) -> MinorModel:
    """A model of a subgraph, in the vertices of the graph its ``lift`` maps
    into."""
    up = lambda s: frozenset(lift[v] for v in s)
    return MinorModel(
        tuple(up(s) for s in model.clique_side),
        tuple(up(s) for s in model.independent_side),
    )


def _singleton_model(clique_vertices, independent_vertices) -> MinorModel:
    return MinorModel(
        tuple(frozenset((v,)) for v in clique_vertices),
        tuple(frozenset((v,)) for v in independent_vertices),
    )


def _frozen(value):
    """``value`` with every list in it, nested ones too, made a tuple."""
    return tuple(map(_frozen, value)) if isinstance(value, (list, tuple)) else value


def _step(kind: str, g: Graph, **data) -> TraceStep:
    # Read-only and without lists: cached steps are shared by certificates,
    # and certificate_to_json copies the data shallowly.
    data = {key: _frozen(value) for key, value in data.items()}
    return TraceStep(kind, MappingProxyType({"graph6": cached_graph6(g), "n": g.n, **data}))


def _finish(
    g: Graph, ell: int, chi: int, target: CliqueJoinIndependent, model: MinorModel, trace: list[TraceStep]
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
        chi=chi,
        target=target,
        model=normalized_model(model),
        trace=tuple(trace),
        validated=True,
    )


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
    _require_alpha2(g)
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
    _require_alpha2(g)
    if ell < 1 or 2 * ell > ceil_half(g.n):
        raise PreconditionError(f"need 1 <= ell and 2*ell <= {ceil_half(g.n)}")
    trace: list[TraceStep] = []
    model = _half_model(g, ell, trace)
    target = CliqueJoinIndependent(ell, ceil_half(g.n) - ell)
    return _finish(g, ell, _chromatic_number(g), target, model, trace)


def _half_model(g: Graph, ell: int, trace: list[TraceStep]) -> MinorModel:
    n = g.n
    m = ceil_half(n) - ell
    if g.is_complete():
        trace.append(_step("CliqueDirect", g))
        return _singleton_model(range(ell), range(ell, ell + m))
    if n % 2 == 0:
        v = min(range(n), key=lambda x: (g.degree(x), x))
        trace.append(_step("DeleteVertexEven", g, vertex=v))
        h, lift = delete_vertices(g, (v,))
        return _relabel_model(_half_model(h, ell, trace), lift)
    fallback = _half_fallback(g)
    if fallback is not None:
        step, sets = fallback
        trace.append(step)
        return MinorModel(sets[:ell], sets[ell:])
    if n >= 4 * ell + 1:
        packing = find_p3_packing(g, ell)
        if packing is None:
            raise InvariantViolation(
                "guaranteed path packing not found",
                {"graph6": emit_graph6(g), "ell": ell},
            )
        outside = list(bits(g.vertex_mask() & ~packing.vertex_mask()))
        chosen = outside[:m]
        triples = [list(t) for t in packing.triples]
        trace.append(_step("PackAndContract", g, triples=triples, independent=chosen))
        return MinorModel(
            tuple(frozenset(t) for t in packing.triples),
            tuple(frozenset((v,)) for v in chosen),
        )
    if n != 4 * ell - 1:
        raise InvariantViolation(
            "case analysis missed a vertex count", {"n": n, "ell": ell}
        )
    return _small_case_model(g, ell, trace)


@lru_cache(maxsize=64)
def _half_fallback(
    g: Graph,
) -> tuple[TraceStep, tuple[frozenset[int], ...]] | None:
    """The half form's branch for an odd non-complete graph, which does not
    depend on ell: ``None`` when kappa >= k = ceil(n/2) and 4*omega < n + 3,
    so that paths are packed; otherwise the recorded fallback step, which
    every certificate built from this cache entry shares, and the branch sets
    of a K_k, whose first ell sets form the clique side.

    The K_k comes from a maximum clique W, truncated to k vertices, plus
    k - |W| disjoint induced 3-vertex paths ("seagulls") in G - W.  A
    seagull's ends are non-adjacent, so with independence number two every
    other vertex sees one of them: each seagull dominates G, and the
    singletons of W and the seagulls are pairwise joined connected sets
    (Chudnovsky and Seymour, "Packing seagulls")."""
    k = ceil_half(g.n)
    omega, witness = max_clique(g)
    if not is_k_connected(g, k):
        kind, data = "FallbackConnectivity", {"required_connectivity": k}
    elif 4 * omega >= g.n + 3:
        kind, data = "FallbackClique", {"clique_number": omega}
    else:
        return None
    clique = sorted(witness)[:k]
    h, lift = delete_vertices(g, clique)
    packing = find_p3_packing(h, k - len(clique))
    if packing is None:
        state = {
            "graph6": emit_graph6(g),
            "k": k,
            "clique": clique,
            "seagulls": k - len(clique),
        }
        # The report's clique capacity scans every clique: dump it only where
        # that finishes.
        if h.n <= 30:
            state["conditions"] = check_packing_conditions(h)
        raise InvariantViolation("seagull packing beside the clique not found", state)
    triples = [[lift[v] for v in t] for t in packing.triples]
    sets = tuple(frozenset((v,)) for v in clique) + tuple(frozenset(t) for t in triples)
    return _step(kind, g, **data, clique=clique, triples=triples), sets


def _small_case_model(g: Graph, ell: int, trace: list[TraceStep]) -> MinorModel:
    """The n = 4*ell - 1 hard case: contract one chosen edge and ell - 1
    disjoint induced paths; the ell leftover vertices, driven inside the
    edge's closed neighborhood by exchanges, form the independent side."""
    u, v = select_edge_small_case(g, ell)
    gp, lift = delete_vertices(g, (u, v))
    sub = find_p3_packing(gp, ell - 1)
    if sub is None:
        raise InvariantViolation(
            "guaranteed path packing not found after edge removal",
            {"graph6": emit_graph6(g), "edge": (u, v), "ell": ell},
        )
    lifted = P3Packing(tuple(tuple(lift[x] for x in t) for t in sub.triples))
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
    triples = [list(t) for t in packing.triples]
    trace.append(_step("SmallCaseEdge", g, edge=[u, v], triples=triples, independent=leftover))
    return MinorModel(
        (frozenset((u, v)),) + tuple(frozenset(t) for t in packing.triples),
        tuple(frozenset((b,)) for b in leftover),
    )


# -- chromatic form -----------------------------------------------------------


def construct_chi_minor(g: Graph, ell: int) -> Certificate:
    """Certificate for the ell-clique joined to chi(G) - ell independent
    branch sets; requires independence number <= 2 and 2*ell <= chi(G)."""
    chi = chromatic_number_alpha2(g)  # raises unless alpha <= 2
    if ell < 1 or 2 * ell > chi:
        raise PreconditionError(f"need 1 <= ell and 2*ell <= chi = {chi}")
    trace: list[TraceStep] = []
    model = _chi_model(g, ell, chi, trace)
    target = CliqueJoinIndependent(ell, chi - ell)
    return _finish(g, ell, chi, target, model, trace)


def _chi_model(g: Graph, ell: int, chi: int, trace: list[TraceStep]) -> MinorModel:
    n = g.n
    if g.is_complete():
        trace.append(_step("CliqueDirect", g))
        return _singleton_model(range(ell), range(ell, chi))
    if ell == 1:
        w = max(range(n), key=lambda x: (g.degree(x), -x))
        leaves = sorted(bits(g.adj[w]))[: chi - 1]
        if len(leaves) < chi - 1:
            raise InvariantViolation(
                "maximum degree below chi - 1",
                {"graph6": emit_graph6(g), "chi": chi},
            )
        trace.append(_step("MaxDegreeStar", g, center=w, leaves=leaves))
        return _singleton_model((w,), leaves)
    if n >= 2 * chi - 1:
        if chi != ceil_half(n):
            raise InvariantViolation(
                "chromatic number must equal ceil(n/2) when n >= 2*chi - 1",
                {"graph6": emit_graph6(g), "chi": chi},
            )
        trace.append(_step("DelegateHalf", g))
        return _half_model(g, ell, trace)
    core, lift, deletions, sides = _chi_decomposition(g)
    trace.extend(deletions)
    if sides is None:
        trace.append(_step("CliqueDirect", core))
        model = _singleton_model(range(ell), range(ell, chi))
    else:
        model = _critical_join_model(core, ell, chi, trace, *sides)
    return _relabel_model(model, lift)


@lru_cache(maxsize=64)
def _chi_decomposition(
    g: Graph,
) -> tuple[Graph, tuple[int, ...], tuple[TraceStep, ...], tuple | None]:
    """Delete the lowest vertex outside the complement's Gallai-Edmonds set D
    until every vertex is in D, then split the vertex-critical core as a join:
    its first co-component against the rest.  Returns the core, the lift from
    the core's vertices to those of ``g``, the recorded
    ``DeleteNoncriticalVertex`` steps, which every certificate built from this
    cache entry shares, and the core's two join sides, or ``None`` when the
    core is complete.  Each side is its factor graph, the sorted vertices of
    the core it came from (also the factor's lift) and its chromatic number.

    Only the core's branch depends on ell: along the chain n falls while chi
    stays, so no earlier test of ``_chi_model`` fires there, and a complete
    graph, whose vertices are all in D, can only be the core.  A non-complete
    core has at most 2*chi - 2 vertices, so its complement is disconnected."""
    chi = _chromatic_number(g)
    lift = tuple(range(g.n))
    deletions: list[TraceStep] = []
    while noncritical := g.vertex_mask() & ~_critical_vertices(g):
        x = (noncritical & -noncritical).bit_length() - 1
        h, hlift = delete_vertices(g, (x,))
        if _chromatic_number(h) != chi:
            raise InvariantViolation(
                "deleting a vertex outside the Gallai-Edmonds set lowered chi",
                {"graph6": emit_graph6(g), "chi": chi, "vertex": x},
            )
        deletions.append(_step("DeleteNoncriticalVertex", g, vertex=x))
        lift = tuple(lift[v] for v in hlift)
        g = h
    if g.is_complete():
        return g, lift, tuple(deletions), None
    comps = co_components(g)
    if len(comps) == 1:
        raise InvariantViolation(
            "critical graph on fewer than 2*chi - 1 vertices is anti-connected",
            {"graph6": emit_graph6(g), "chi": chi},
        )
    g1, side1 = induced_subgraph(g, comps[0])
    g2, side2 = delete_vertices(g, comps[0])
    chi1 = _chromatic_number(g1)
    chi2 = _chromatic_number(g2)
    if chi1 + chi2 != chi:
        raise InvariantViolation(
            "join did not add chromatic numbers",
            {"graph6": emit_graph6(g), "chi": (chi, chi1, chi2)},
        )
    return g, lift, tuple(deletions), ((g1, side1, chi1), (g2, side2, chi2))


def _critical_join_model(g, ell, chi, trace, part1, part2) -> MinorModel:
    """A vertex-critical non-complete G on at most 2*chi - 2 vertices, given
    as the join of its two sides."""
    (g1, side1, chi1), (g2, side2, chi2) = part1, part2
    for l1 in range(1, ell):
        l2 = ell - l1
        if 2 * l1 <= chi1 and 2 * l2 <= chi2:
            trace.append(
                _step("JoinDecompose", g, side1=side1, side2=side2, split=(l1, l2))
            )
            m1 = _relabel_model(_chi_model(g1, l1, chi1, trace), side1)
            m2 = _relabel_model(_chi_model(g2, l2, chi2, trace), side2)
            return MinorModel(
                m1.clique_side + m2.clique_side,
                m1.independent_side + m2.independent_side,
            )
    if g1.is_complete() or g2.is_complete():
        return _clique_absorb_model(g, ell, trace, part1, part2)
    return _parity_glue_model(g, ell, chi, trace, part1, part2)


def _clique_absorb_model(g, ell, trace, part1, part2) -> MinorModel:
    """One join factor is a clique: its vertices dominate the graph and can be
    placed directly on either side of the model."""
    if part1[0].is_complete():
        (ck, cverts, _), (other, overts, chi_other) = part1, part2
    else:
        (ck, cverts, _), (other, overts, chi_other) = part2, part1
    c = ck.n
    trace.append(_step("CliqueAbsorb", g, clique_part=cverts, absorbed=min(ell, c)))
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
    odd, chi = 2*ell, and deleting the first non-adjacent pair from each
    factor drops its chromatic number by exactly one.  The two pairs are glued
    across the join into two dominating branch sets, one per side.

    Factor G_i's pair is u_i, its lowest vertex with a non-neighbour, and v_i,
    u_i's lowest non-neighbour, which lies above u_i.  chi adds over joins, so
    each side of the vertex-critical core is vertex-critical: the complement's
    Gallai-Edmonds set D is all of V(G_i).  For non-adjacent x, y in D, some
    maximum matching M of the complement misses x; M covers y, or M + xy is
    larger, so swapping y's edge for xy gives a maximum matching with xy.
    Deleting x and y then drops n by two and nu by one: chi drops by one."""
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
        ui = next(x for x in range(gi.n) if gi.degree(x) < gi.n - 1)
        vi = next(bits(gi.vertex_mask() & ~gi.adj[ui] & ~(1 << ui)))
        hi, hlift = delete_vertices(gi, (ui, vi))
        if _chromatic_number(hi) != chii - 1:
            raise InvariantViolation(
                "deleting the first non-adjacent pair did not lower chi by one",
                {"graph6": emit_graph6(gi), "chi": chii, "pair": (ui, vi)},
            )
        sub = _chi_model(hi, li, chii - 1, trace)
        halves.append(_relabel_model(sub, [lifti[v] for v in hlift]))
        pairs_g.append((lifti[ui], lifti[vi]))
    (u1, v1), (u2, v2) = pairs_g
    trace.append(
        _step(
            "ParityGlue",
            g,
            side1_pair=[u1, v1],
            side2_pair=[u2, v2],
            glued_clique_pair=sorted((u1, u2)),
            glued_independent_pair=sorted((v1, v2)),
        )
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
