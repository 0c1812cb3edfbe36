"""Branch-set models of minors: representation, validation, serialization.

A model assigns disjoint connected branch sets to the target's vertices.  The
target is the join of a clique of size ell with an independent set of size m
(the complete bipartite graph with the small side made complete); m = 0 gives
the complete graph on ell vertices.  ``validate_model`` is the package's one
minor checker: every certificate passes it before it is handed out.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, is_connected_mask


@dataclass(frozen=True)
class CliqueJoinIndependent:
    """K_{ell,m} with the side of size ell made into a clique; K_ell when
    m = 0."""

    ell: int
    m: int

    def __post_init__(self):
        if self.ell < 1 or self.m < 0:
            raise ValueError("clique-join target needs ell >= 1 and m >= 0")


@dataclass(frozen=True)
class MinorModel:
    """Branch sets witnessing a minor; clique-side sets must be pairwise
    joined and joined to every independent-side set."""

    clique_side: tuple[frozenset[int], ...]
    independent_side: tuple[frozenset[int], ...] = ()

    def all_sets(self) -> tuple[frozenset[int], ...]:
        return self.clique_side + self.independent_side


def validate_model(g: Graph, target: CliqueJoinIndependent, model: MinorModel) -> list[str]:
    """Check every model invariant; returns all violations (empty = valid).

    Each branch set contributes its mask and the OR of its vertices'
    neighbourhoods, so each pair is tested with one AND."""
    ell, m = target.ell, target.m
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


# -- serialization ---------------------------------------------------------


def normalized_model(model: MinorModel) -> MinorModel:
    """Branch sets sorted internally and sides sorted lexicographically, for
    canonical, diffable serialization."""
    clique = tuple(sorted(model.clique_side, key=sorted))
    indep = tuple(sorted(model.independent_side, key=sorted))
    return MinorModel(clique, indep)
