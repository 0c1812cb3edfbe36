"""Independent brute-force oracles for the test suite.

Everything here is deliberately written against the definitions, with code
paths disjoint from the package implementations (subset scans, permutation
search, plain backtracking), so that agreement is meaningful evidence; the
pairwise isomorphism matcher (colour refinement, then backtracking) shares
nothing with the package's canonical labelling.  The two deletion scans for
chromatic criticality use the package's chromatic number, one deleted
subgraph at a time, in place of the Gallai-Edmonds set.  The packing
characterization check compares two package routines, the exhaustive search
and the four conditions, with each other.  The certificate-deduplicating
enumerator uses the package's canonical labelling and orbit pruning, but not
its canonical augmentation.  The brute-force minor search grows connected
branch sets by backtracking, after a subgraph fast path that starts from the
package's maximum clique; no constructor calls it, so its answers are checked
against the constructors' certificates, never fed into them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from alpha2minor.cliques import max_clique
from alpha2minor.errors import PreconditionError
from alpha2minor.generate import _extend_with_vertex, _orbit_representatives
from alpha2minor.graphs import Graph, bits, delete_vertices, independent_sets, mask_of
from alpha2minor.invariants import chromatic_number_alpha2, is_five_wheel
from alpha2minor.iso import canonical_form
from alpha2minor.minors import CliqueJoinIndependent, MinorModel
from alpha2minor.packing import check_packing_conditions, find_p3_packing, validate_packing


def brute_independence_number(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        members = list(bits(mask))
        if all(not g.has_edge(u, v) for u, v in combinations(members, 2)):
            best = max(best, len(members))
    return best


def brute_alpha_at_most_two(g: Graph) -> bool:
    return all(
        g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c)
        for a, b, c in combinations(range(g.n), 3)
    )


def brute_chromatic_number(g: Graph) -> int:
    """Exact chromatic number by saturation-ordered backtracking."""
    n = g.n
    if n == 0:
        return 0
    nbrs = [list(bits(row)) for row in g.adj]

    def colorable(k: int) -> bool:
        colors = [-1] * n

        def step() -> bool:
            uncolored = [v for v in range(n) if colors[v] == -1]
            if not uncolored:
                return True
            # Most saturated vertex first, ties by degree then index.
            def saturation(v):
                return len({colors[u] for u in nbrs[v] if colors[u] != -1})
            v = max(uncolored, key=lambda x: (saturation(x), len(nbrs[x]), -x))
            used = {colors[u] for u in nbrs[v] if colors[u] != -1}
            top = max((colors[u] for u in range(n) if colors[u] != -1), default=-1)
            for c in range(min(top + 1, k - 1) + 1):
                if c in used:
                    continue
                colors[v] = c
                if step():
                    return True
                colors[v] = -1
            return False

        return step()

    for k in range(1, n + 1):
        if colorable(k):
            return k
    return n


def brute_matching_number(g: Graph) -> int:
    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if not mask:
            return 0
        vbit = mask & -mask
        v = vbit.bit_length() - 1
        rest = mask ^ vbit
        out = best(rest)  # v unmatched
        for u in bits(g.adj[v] & rest):
            out = max(out, 1 + best(rest & ~(1 << u)))
        return out

    return best(g.vertex_mask())


def brute_vertex_connectivity(g: Graph) -> int:
    """Minimum separator by subset scan (complete graphs: n - 1)."""
    n = g.n
    if n <= 1:
        return 0
    if g.is_complete():
        return n - 1
    if not _connected_set(g, g.vertex_mask()):
        return 0
    for size in range(1, n - 1):
        for sep in combinations(range(n), size):
            rest = g.vertex_mask()
            for v in sep:
                rest &= ~(1 << v)
            if rest and not _connected_set(g, rest):
                return size
    return n - 1


def _connected_set(g: Graph, mask: int) -> bool:
    if mask == 0:
        return True
    start = mask & -mask
    seen = start
    frontier = [start.bit_length() - 1]
    while frontier:
        v = frontier.pop()
        for u in bits(g.adj[v] & mask & ~seen):
            seen |= 1 << u
            frontier.append(u)
    return seen == mask


def brute_clique_number(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        members = list(bits(mask))
        if all(g.has_edge(u, v) for u, v in combinations(members, 2)):
            best = max(best, len(members))
    return best


def brute_min_doubled_capacity(g: Graph) -> tuple[int, frozenset[int]]:
    """Minimum of 2|mixed| + |complete| + |anticomplete| over all nonempty
    cliques, straight from the definitions, with a witness: among the
    minimizers, fewest vertices, then smallest mask."""
    best = None
    for mask in range(1, 1 << g.n):
        members = list(bits(mask))
        if not all(g.has_edge(u, v) for u, v in combinations(members, 2)):
            continue
        a = b = d = 0
        for v in range(g.n):
            if (mask >> v) & 1:
                continue
            hits = sum(1 for u in members if g.has_edge(v, u))
            if hits == len(members):
                a += 1
            elif hits == 0:
                b += 1
            else:
                d += 1
        key = (2 * d + a + b, len(members), mask)
        best = key if best is None else min(best, key)
    assert best is not None
    return best[0], frozenset(bits(best[2]))


def doubled_capacity_of_mask(g: Graph, cmask: int) -> int:
    """Doubled capacity of a clique given as a mask, skipping validation."""
    a_b = 0
    d = 0
    for v in bits(g.vertex_mask() & ~cmask):
        hits = g.adj[v] & cmask
        if hits == cmask or hits == 0:
            a_b += 1
        else:
            d += 1
    return 2 * d + a_b


@dataclass(frozen=True)
class CapacityReport:
    """The partition of the vertex set induced by a clique.

    ``complete_part`` sees every clique vertex, ``anticomplete_part`` sees
    none, ``mixed_part`` sees some but not all.  The capacity of the clique is
    |mixed| + |complete u anticomplete| / 2; it is stored doubled so that
    comparisons against integer thresholds stay in integer arithmetic.
    """

    clique: frozenset[int]
    complete_part: frozenset[int]
    anticomplete_part: frozenset[int]
    mixed_part: frozenset[int]
    doubled_capacity: int


def capacity(g: Graph, clique_vertices) -> CapacityReport:
    cmask = mask_of(clique_vertices)
    if cmask == 0:
        raise PreconditionError("capacity is defined for nonempty cliques")
    if cmask & ~g.vertex_mask():
        raise PreconditionError("vertex out of range")
    members = list(bits(cmask))
    for v in members:
        if (g.adj[v] & cmask) != cmask ^ (1 << v):
            raise PreconditionError("capacity is defined only for cliques")
    a = b = d = 0
    for v in bits(g.vertex_mask() & ~cmask):
        hits = g.adj[v] & cmask
        if hits == cmask:
            a |= 1 << v
        elif hits == 0:
            b |= 1 << v
        else:
            d |= 1 << v
    return CapacityReport(
        clique=frozenset(members),
        complete_part=frozenset(bits(a)),
        anticomplete_part=frozenset(bits(b)),
        mixed_part=frozenset(bits(d)),
        doubled_capacity=2 * d.bit_count() + a.bit_count() + b.bit_count(),
    )


def chi_drop_scan(g: Graph) -> int:
    """Mask of the vertices whose deletion lowers the chromatic number by one,
    from one deleted subgraph per vertex (independence number <= 2)."""
    chi = chromatic_number_alpha2(g)
    return sum(
        1 << x
        for x in range(g.n)
        if chromatic_number_alpha2(delete_vertices(g, (x,))[0]) == chi - 1
    )


def scan_critical_nonadjacent_pair(g: Graph, chi: int) -> tuple[int, int] | None:
    """Lexicographically first non-adjacent pair whose one-by-one and joint
    deletions all leave chromatic number chi - 1, by deleting each vertex and
    each candidate pair in turn."""
    def drops_to_target(vertices: tuple[int, ...]) -> bool:
        h, _ = delete_vertices(g, vertices)
        return chromatic_number_alpha2(h) == chi - 1
    singles = [x for x in range(g.n) if drops_to_target((x,))]
    ok = set(singles)
    for x in singles:
        for y in range(x + 1, g.n):
            if y in ok and not g.has_edge(x, y) and drops_to_target((x, y)):
                return (x, y)
    return None


def is_vertex_critical(g: Graph) -> bool:
    """True iff deleting any single vertex lowers the chromatic number."""
    chi = brute_chromatic_number(g)
    return all(
        brute_chromatic_number(delete_vertices(g, (v,))[0]) < chi for v in range(g.n)
    )


def brute_packing_exists(g: Graph, count: int) -> bool:
    """Exhaustive disjoint-induced-path packing test over triple combinations."""
    triples = [
        order
        for c in combinations(range(g.n), 3)
        for order in _p3_orders(g, c)
    ]

    def extend(chosen: list[tuple[int, int, int]], start: int) -> bool:
        if len(chosen) == count:
            return True
        used = {v for t in chosen for v in t}
        for i in range(start, len(triples)):
            if not used.intersection(triples[i]):
                if extend(chosen + [triples[i]], i + 1):
                    return True
        return False

    return extend([], 0)


def _p3_orders(g: Graph, trio) -> list[tuple[int, int, int]]:
    a, b, c = trio
    edges = g.has_edge(a, b) + g.has_edge(a, c) + g.has_edge(b, c)
    if edges != 2:
        return []
    if not g.has_edge(a, b):
        return [(a, c, b)]
    if not g.has_edge(a, c):
        return [(a, b, c)]
    return [(b, a, c)]


def verify_packing_characterization(g: Graph, ell: int) -> bool:
    """True iff an exhaustive packing search and the four-condition test agree.

    The characterization excludes one case by hypothesis: packing size two on
    the five-wheel (all four conditions hold there, yet no packing exists).
    """
    if ell == 2 and is_five_wheel(g):
        raise PreconditionError("the five-wheel at size two is excluded")
    packing = find_p3_packing(g, ell)
    if packing is not None and validate_packing(g, packing):
        return False
    return (packing is not None) == check_packing_conditions(g).holds(ell)


def naive_model_check(g: Graph, ell: int, m: int, clique_side, independent_side) -> bool:
    """Second, independently coded model checker: plain loops over pairs."""
    sets = [set(s) for s in clique_side] + [set(s) for s in independent_side]
    if len(clique_side) != ell or len(independent_side) != m:
        return False
    for s in sets:
        if not s or any(not 0 <= v < g.n for v in s):
            return False
        # connectivity by repeated neighbor absorption
        reached = {min(s)}
        while True:
            grown = {
                u for u in s if u not in reached and any(g.has_edge(u, w) for w in reached)
            }
            if not grown:
                break
            reached |= grown
        if reached != s:
            return False
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] & sets[j]:
                return False
            if i < ell or j < ell:
                if not any(g.has_edge(u, v) for u in sets[i] for v in sets[j]):
                    return False
    return True


# -- brute-force minor search ----------------------------------------------


class SearchCapExceeded(RuntimeError):
    """The minor search hit its instance-size guard or node budget.

    Distinct from a negative answer: the search was aborted, not exhausted.
    """


ORACLE_DEFAULT_MAX_N = 14
ORACLE_DEFAULT_BUDGET = 5_000_000


def find_minor_bruteforce(
    g: Graph,
    target: CliqueJoinIndependent,
    *,
    max_n: int = ORACLE_DEFAULT_MAX_N,
    node_budget: int = ORACLE_DEFAULT_BUDGET,
) -> MinorModel | None:
    """Exhaustive search for a model of ``target``; ``None`` means no model
    exists.  Raises :class:`SearchCapExceeded` when the instance-size guard or
    node budget trips, which is distinct from a negative answer.
    """
    ell, m = target.ell, target.m
    total = ell + m
    if total > g.n:
        return None
    if total >= 5 and g.n > max_n:
        raise SearchCapExceeded(
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


def _sets_joined(g: Graph, a: int, b: int) -> bool:
    for v in bits(a):
        if g.adj[v] & b:
            return True
    return False


def _seeded_model_search(g: Graph, ell: int, total: int, node_budget: int) -> MinorModel | None:
    n = g.n
    ticks = 0

    def tick() -> None:
        nonlocal ticks
        ticks += 1
        if ticks > node_budget:
            raise SearchCapExceeded(f"minor oracle exceeded {node_budget} search nodes")

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


@lru_cache(maxsize=1 << 16)
def brute_canonical_form(g: Graph) -> tuple:
    """Canonical form by full permutation search; n <= 7 only."""
    best = None
    verts = list(range(g.n))
    for perm in permutations(verts):
        key = tuple(
            sorted(
                (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges()
            )
        )
        if best is None or key < best:
            best = key
    return (g.n, best)


def brute_triangle_free_class_count(n: int) -> int:
    """Triangle-free isomorphism classes by raw edge-subset enumeration: the
    first edge set of each class marks its images under all n! vertex
    permutations as seen; n <= 6 only."""
    pairs = list(combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    triangles = [
        (1 << index[(a, b)]) | (1 << index[(a, c)]) | (1 << index[(b, c)])
        for a, b, c in combinations(range(n), 3)
    ]
    # images[p][i]: the bit of edge i's image under permutation p.
    images = [
        [1 << index[(min(perm[u], perm[v]), max(perm[u], perm[v]))] for u, v in pairs]
        for perm in permutations(range(n))
    ]
    seen = set()
    classes = 0
    for picks in range(1 << len(pairs)):
        if picks in seen or any(t & picks == t for t in triangles):
            continue
        classes += 1
        for image in images:
            seen.add(sum(bit for i, bit in enumerate(image) if picks >> i & 1))
    return classes


def refined_colors(g: Graph) -> tuple[int, ...]:
    """Stable vertex colors under iterated neighborhood-color refinement."""
    nbrs = [list(bits(row)) for row in g.adj]
    colors = list(g.degrees())
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in nbrs[v])))
            for v in range(g.n)
        ]
        ranking = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [ranking[sig] for sig in sigs]
        if new == colors:
            return tuple(new)
        colors = new


def are_isomorphic(g: Graph, gc: tuple[int, ...], h: Graph, hc: tuple[int, ...]) -> bool:
    """Whether ``g`` and ``h`` are isomorphic, given their refined colors."""
    if g.n != h.n or len(g.edges()) != len(h.edges()):
        return False
    if sorted(gc) != sorted(hc):
        return False
    n = g.n
    # Match most-constrained vertices first: rare colors, then high degree.
    color_count: dict[int, int] = {}
    for c in gc:
        color_count[c] = color_count.get(c, 0) + 1
    order = sorted(range(n), key=lambda v: (color_count[gc[v]], -g.degree(v), v))
    h_by_color: dict[int, list[int]] = {}
    for v in range(n):
        h_by_color.setdefault(hc[v], []).append(v)

    mapping = [-1] * n
    used = [False] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in h_by_color.get(gc[v], ()):
            if used[w]:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if g.has_edge(v, u) != h.has_edge(w, mapping[u]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if place(i + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    return place(0)


def brute_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every automorphism, found by backtracking over vertex images in label
    order."""
    n = g.n
    image = [-1] * n
    found = []

    def place(v: int) -> None:
        if v == n:
            found.append(tuple(image))
            return
        for w in range(n):
            if w in image[:v] or g.degree(w) != g.degree(v):
                continue
            if all(g.has_edge(u, v) == g.has_edge(image[u], w) for u in range(v)):
                image[v] = w
                place(v + 1)
                image[v] = -1

    place(0)
    return found


def brute_automorphism_orbits(g: Graph) -> list[frozenset[int]]:
    """The vertex orbits of the full automorphism group."""
    reach = [{v} for v in range(g.n)]
    for perm in brute_automorphisms(g):
        for u, w in enumerate(perm):
            reach[u].add(w)
    return sorted({frozenset(r) for r in reach}, key=min)


@lru_cache(maxsize=16)
def dedup_triangle_free_classes(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of triangle-free graphs on n
    vertices, by deduplicating every candidate by canonical certificate: each
    class keeps its first member generated by extending the representatives on
    n - 1 vertices, in order, by their independent sets in sorted order, one
    per orbit of the parent's automorphisms.  Automorphisms of a subgroup
    would only merge fewer sets, never wrong ones."""
    if n == 0:
        return (Graph(0, ()),)
    classes: dict[tuple[int, ...], Graph] = {}
    for parent in dedup_triangle_free_classes(n - 1):
        sets = _orbit_representatives(independent_sets(parent), canonical_form(parent)[1])
        for nbr_mask in sets:
            g = _extend_with_vertex(parent, nbr_mask)
            classes.setdefault(canonical_form(g)[0], g)
    return tuple(classes.values())
