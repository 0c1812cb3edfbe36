"""Branch-set models of minors: representation, validation, brute-force search.

A model assigns disjoint connected branch sets to the target's vertices.  The
targets here are the complete graph on k vertices and the join of a clique of
size ell with an independent set of size m (the complete bipartite graph with
the small side made complete).  The brute-force searcher is an independent,
construction-free oracle for ``oracle-check`` and the tests; no constructor
calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .cliques import max_clique
from .errors import OracleCapExceeded
from .graphs import Graph, bits, is_connected_mask


@dataclass(frozen=True)
class CompleteGraph:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("complete-graph target needs k >= 1")


@dataclass(frozen=True)
class CliqueJoinIndependent:
    """K_{ell,m} with the side of size ell made into a clique."""

    ell: int
    m: int

    def __post_init__(self):
        if self.ell < 1 or self.m < 0:
            raise ValueError("clique-join target needs ell >= 1 and m >= 0")


MinorTarget = Union[CompleteGraph, CliqueJoinIndependent]


@dataclass(frozen=True)
class MinorModel:
    """Branch sets witnessing a minor; clique-side sets must be pairwise
    joined and joined to every independent-side set."""

    clique_side: tuple[frozenset[int], ...]
    independent_side: tuple[frozenset[int], ...] = ()

    def all_sets(self) -> tuple[frozenset[int], ...]:
        return self.clique_side + self.independent_side


def _sides_of(target: MinorTarget) -> tuple[int, int]:
    if isinstance(target, CompleteGraph):
        return target.k, 0
    return target.ell, target.m


def _sets_joined(g: Graph, a: int, b: int) -> bool:
    for v in bits(a):
        if g.adj[v] & b:
            return True
    return False


def validate_model(g: Graph, target: MinorTarget, model: MinorModel) -> list[str]:
    """Check every model invariant; returns all violations (empty = valid).

    Each branch set contributes its mask and the OR of its vertices'
    neighbourhoods, so each pair is tested with one AND."""
    ell, m = _sides_of(target)
    problems = []
    if len(model.clique_side) != ell:
        problems.append(
            f"clique side has {len(model.clique_side)} sets, target needs {ell}"
        )
    if len(model.independent_side) != m:
        problems.append(
            f"independent side has {len(model.independent_side)} sets, target needs {m}"
        )
    sets = model.all_sets()
    masks = []
    reach = []
    for i, s in enumerate(sets):
        if not s:
            problems.append(f"branch set {i} is empty")
            masks.append(0)
            reach.append(0)
            continue
        if any(not 0 <= v < g.n for v in s):
            problems.append(f"branch set {i} has a vertex out of range")
            masks.append(0)
            reach.append(0)
            continue
        mask = 0
        nbrs = 0
        for v in s:
            mask |= 1 << v
            nbrs |= g.adj[v]
        masks.append(mask)
        reach.append(nbrs)
        if len(s) > 1 and not is_connected_mask(g, mask):
            problems.append(f"branch set {i} ({sorted(s)}) is not connected")
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if masks[i] & masks[j]:
                problems.append(f"branch sets {i} and {j} are not disjoint")
    # A pair needs an edge when one of its sets is on the clique side, that
    # is, when the lower index is.
    for i in range(len(model.clique_side)):
        if not masks[i]:
            continue
        for j in range(i + 1, len(sets)):
            if masks[j] and not masks[i] & masks[j] and not reach[i] & masks[j]:
                problems.append(f"no edge between branch sets {i} and {j}")
    return problems


# -- brute-force search --------------------------------------------------

ORACLE_DEFAULT_MAX_N = 14
ORACLE_DEFAULT_BUDGET = 5_000_000


def find_minor_bruteforce(
    g: Graph,
    target: MinorTarget,
    *,
    max_n: int = ORACLE_DEFAULT_MAX_N,
    node_budget: int = ORACLE_DEFAULT_BUDGET,
) -> MinorModel | None:
    """Exhaustive search for a model of ``target``; ``None`` means no model
    exists.  Raises :class:`OracleCapExceeded` when the instance-size guard or
    node budget trips, which is distinct from a negative answer.
    """
    ell, m = _sides_of(target)
    total = ell + m
    if total > g.n:
        return None
    if total >= 5 and g.n > max_n:
        raise OracleCapExceeded(
            f"minor oracle guard: {total} branch sets on {g.n} > {max_n} vertices"
        )
    direct = _direct_subgraph_model(g, ell, m)
    if direct is not None:
        return direct
    return _seeded_model_search(g, ell, total, node_budget)


def _direct_subgraph_model(g: Graph, ell: int, m: int) -> MinorModel | None:
    """Fast path: the target as a plain subgraph (all branch sets singletons)."""
    size, witness = max_clique(g)
    if size < ell:
        return None
    if m == 0:
        chosen = sorted(witness)[:ell]
        return MinorModel(tuple(frozenset((v,)) for v in chosen))

    def extend(cmask: int, cand: int, size_now: int) -> tuple[int, int] | None:
        if size_now == ell:
            common = g.vertex_mask() & ~cmask
            for v in bits(cmask):
                common &= g.adj[v]
            return (cmask, common) if common.bit_count() >= m else None
        for v in bits(cand):
            hit = extend(
                cmask | (1 << v), cand & g.adj[v] & ~((1 << (v + 1)) - 1), size_now + 1
            )
            if hit is not None:
                return hit
        return None

    found = extend(0, g.vertex_mask(), 0)
    if found is not None:
        cmask, common = found
        clique = tuple(frozenset((v,)) for v in bits(cmask))
        indep = tuple(frozenset((v,)) for v in sorted(bits(common))[:m])
        return MinorModel(clique, indep)
    return None


def _seeded_model_search(g: Graph, ell: int, total: int, node_budget: int) -> MinorModel | None:
    n = g.n
    ticks = 0

    def tick() -> None:
        nonlocal ticks
        ticks += 1
        if ticks > node_budget:
            raise OracleCapExceeded(f"minor oracle exceeded {node_budget} search nodes")

    def grown_sets(seed: int, allowed: int, size: int):
        """Connected subsets of ``allowed`` containing ``seed`` with exactly
        ``size`` vertices, each enumerated once."""

        def grow(cur: int, ext: int, ban: int):
            tick()
            if cur.bit_count() == size:
                yield cur
                return
            while ext:
                vbit = ext & -ext
                ext ^= vbit
                v = vbit.bit_length() - 1
                new_cur = cur | vbit
                new_ext = (ext | (g.adj[v] & allowed)) & ~new_cur & ~ban
                yield from grow(new_cur, new_ext, ban)
                ban |= vbit

        seed_bit = 1 << seed
        yield from grow(seed_bit, g.adj[seed] & allowed & ~seed_bit, 0)

    sets: list[int] = []

    def place(role: int, free: int, prev_clique_min: int, prev_indep_min: int):
        if role == total:
            return list(sets)
        in_clique = role < ell
        prev_min = prev_clique_min if in_clique else prev_indep_min
        must_join = sets[:role] if in_clique else sets[:ell]
        remaining_after = total - role - 1
        max_size = free.bit_count() - remaining_after
        if max_size < 1:
            return None
        # Independent roles joined by singletons: the common dense-graph case.
        if not in_clique:
            good = [
                v
                for v in bits(free)
                if v > prev_min and all(g.adj[v] & s for s in must_join)
            ]
            if len(good) >= total - role:
                for v in good[: total - role]:
                    sets.append(1 << v)
                out = list(sets)
                del sets[role:]
                return out
        for size in range(1, max_size + 1):
            seeds = free & ~((1 << (prev_min + 1)) - 1) if prev_min >= 0 else free
            for seed in bits(seeds):
                allowed = free & ~((1 << seed) - 1)
                if allowed.bit_count() < size:
                    continue
                for smask in grown_sets(seed, allowed, size):
                    if all(_sets_joined(g, smask, other) for other in must_join):
                        sets.append(smask)
                        result = place(
                            role + 1,
                            free & ~smask,
                            seed if in_clique else prev_clique_min,
                            seed if not in_clique else prev_indep_min,
                        )
                        if result is not None:
                            return result
                        sets.pop()
        return None

    solution = place(0, g.vertex_mask(), -1, -1)
    if solution is None:
        return None
    branch_sets = [frozenset(bits(mask)) for mask in solution]
    return MinorModel(tuple(branch_sets[:ell]), tuple(branch_sets[ell:]))


# -- serialization ---------------------------------------------------------


def target_to_json(target: MinorTarget) -> dict:
    if isinstance(target, CompleteGraph):
        return {"k": target.k}
    return {"ell": target.ell, "m": target.m}


def normalized_model(model: MinorModel) -> MinorModel:
    """Branch sets sorted internally and sides sorted lexicographically, for
    canonical, diffable serialization."""
    clique = tuple(sorted(model.clique_side, key=sorted))
    indep = tuple(sorted(model.independent_side, key=sorted))
    return MinorModel(clique, indep)


def model_to_json(target: MinorTarget, model: MinorModel) -> dict:
    norm = normalized_model(model)
    return {
        "target": target_to_json(target),
        "clique_side": [sorted(s) for s in norm.clique_side],
        "independent_side": [sorted(s) for s in norm.independent_side],
    }
