import random

import pytest

from alpha2minor import (
    PreconditionError,
    alpha_at_most_two,
    chromatic_number_alpha2,
    complement,
    enumerate_alpha2,
    join,
    named,
    random_alpha2,
)
from alpha2minor.generate import (
    _extend_with_vertex,
    _orbit_representatives,
    _triangle_free_classes,
)
from alpha2minor.graphs import Graph, independent_sets
from alpha2minor.iso import canonical_form
from conftest import isomorphic, random_graph
from oracles import (
    are_isomorphic,
    brute_automorphism_orbits,
    brute_canonical_form,
    brute_triangle_free_class_count,
    refined_colors,
)

# One isomorphism class per triangle-free graph; complements are the universe.
KNOWN_CLASS_COUNTS = {1: 1, 2: 2, 3: 3, 4: 7, 5: 14, 6: 38, 7: 107, 8: 410, 9: 1897}
# All graphs on n vertices up to isomorphism (OEIS A000088).
GRAPH_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}


class TestIsomorphism:
    def test_brute_force_agreement_small(self):
        graphs = [random_graph(5, p / 10, seed) for p in (2, 5, 8) for seed in range(8)]
        for g in graphs:
            for h in graphs:
                expected = brute_canonical_form(g) == brute_canonical_form(h)
                assert isomorphic(g, h) == expected

    def test_relabelings_are_isomorphic(self):
        rng = random.Random(11)
        for seed in range(30):
            g = random_graph(9, 0.4, seed)
            perm = list(range(9))
            rng.shuffle(perm)
            h = Graph.from_edges(9, [(perm[u], perm[v]) for u, v in g.edges()])
            assert isomorphic(g, h)
            assert canonical_form(g)[0] == canonical_form(h)[0]

    def test_regular_nonisomorphic_pair(self):
        # Both 2-regular on 9 vertices: one 9-cycle versus a 4+5 cycle pair.
        c9 = named("cycle", 9)
        c45 = Graph.from_edges(
            9,
            [(0, 1), (1, 2), (2, 3), (3, 0)] + [(4, 5), (5, 6), (6, 7), (7, 8), (8, 4)],
        )
        assert not isomorphic(c9, c45)
        assert canonical_form(c9)[0] != canonical_form(c45)[0]


def _relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _orbits(gens, n: int) -> list[frozenset[int]]:
    reach = [{v} for v in range(n)]
    changed = True
    while changed:
        changed = False
        for perm in gens:
            for v in range(n):
                images = {perm[u] for u in reach[v]} - reach[v]
                if images:
                    reach[v] |= images
                    changed = True
    return sorted({frozenset(r) for r in reach}, key=min)


class TestCanonicalForm:
    def test_invariant_under_relabelling(self):
        rng = random.Random(15)
        for seed in range(50):
            g = random_graph(9, rng.choice((0.2, 0.4, 0.6)), seed)
            perm = list(range(9))
            rng.shuffle(perm)
            assert canonical_form(_relabel(g, perm))[0] == canonical_form(g)[0]

    def test_equal_exactly_when_isomorphic_up_to_six(self):
        # Every graph on n vertices is a class representative on n - 1
        # vertices plus one vertex, so growing the representatives by every
        # vertex subset meets every class, most of them many times.
        reps = [Graph(0, ())]
        for n in range(1, 7):
            classes: dict[tuple, list[Graph]] = {}
            for parent in reps:
                for mask in range(1 << (n - 1)):
                    g = _extend_with_vertex(parent, mask)
                    classes.setdefault(canonical_form(g)[0], []).append(g)
            for first, *rest in classes.values():
                assert all(isomorphic(first, h) for h in rest)
            reps = [members[0] for members in classes.values()]
            assert len({brute_canonical_form(g) for g in reps}) == len(reps)
            assert len(reps) == GRAPH_CLASS_COUNTS[n]

    def test_equal_exactly_when_isomorphic_random_seven(self):
        graphs = []
        for p in (2, 5, 8):
            for seed in range(4):
                g = random_graph(7, p / 10, seed)
                perm = list(range(7))
                random.Random(seed).shuffle(perm)
                graphs += [g, _relabel(g, perm)]
        for g in graphs:
            for h in graphs:
                same = canonical_form(g)[0] == canonical_form(h)[0]
                assert same == (brute_canonical_form(g) == brute_canonical_form(h))

    def test_generators_are_automorphisms(self, universe):
        graphs = [g for n in range(10) for g in universe(n)]
        graphs += [random_graph(10, p / 10, seed) for p in (1, 3, 5) for seed in range(10)]
        for g in graphs:
            for perm in canonical_form(g)[1]:
                assert sorted(perm) == list(range(g.n))
                assert _relabel(g, perm) == g

    def test_generators_give_every_orbit(self, universe):
        # The enumerator labels the complements, which share the group.
        for n in range(8):
            for g in universe(n):
                orbits = brute_automorphism_orbits(g)
                assert _orbits(canonical_form(g)[1], n) == orbits
                assert _orbits(canonical_form(complement(g))[1], n) == orbits

    def test_orbit_representatives_are_first_of_each_orbit(self):
        parent = named("cycle", 6)
        sets = independent_sets(parent)
        reps = _orbit_representatives(sets, canonical_form(parent)[1])
        # Under the dihedral group of the hexagon: the empty set, one vertex,
        # two at distance two, two opposite, and the two alternating triples.
        assert reps == [0b0, 0b1, 0b101, 0b1001, 0b10101]


class TestEnumerate:
    def test_class_counts(self, universe):
        for n, count in KNOWN_CLASS_COUNTS.items():
            assert len(universe(n)) == count

    def test_second_enumerator_edge_subsets(self):
        for n in range(1, 7):
            assert brute_triangle_free_class_count(n) == KNOWN_CLASS_COUNTS[n]

    def test_reversed_generation_order_same_classes(self):
        # Rebuild every level with its parents and their extensions in reverse
        # order, deduplicated by the pairwise oracle matcher: other
        # representatives, same classes.
        backward = [Graph(0, ())]
        for n in range(1, 8):
            reps = []
            for parent in reversed(backward):
                for nbr_mask in reversed(independent_sets(parent)):
                    g = _extend_with_vertex(parent, nbr_mask)
                    colors = refined_colors(g)
                    if not any(are_isomorphic(g, colors, h, hc) for h, hc in reps):
                        reps.append((g, colors))
            backward = [g for g, _ in reps]
            forward = _triangle_free_classes(n)
            assert len(forward) == len(backward)
            for g in forward:
                assert sum(isomorphic(g, h) for h in backward) == 1

    def test_stream_pairwise_nonisomorphic(self, universe):
        for n in range(1, 7):
            graphs = universe(n)
            for i, g in enumerate(graphs):
                for h in graphs[i + 1 :]:
                    assert brute_canonical_form(g) != brute_canonical_form(h)

    def test_every_graph_has_independence_at_most_two(self, universe):
        for n in range(0, 8):
            assert all(alpha_at_most_two(g) for g in universe(n))

    def test_deterministic_order(self):
        first = [g for g in enumerate_alpha2(6)]
        second = [g for g in enumerate_alpha2(6)]
        assert first == second

    def test_labeled_stream_without_dedup(self):
        # Growing by one vertex whose neighborhood is an independent set, with
        # no isomorphism dedup, yields each labeled triangle-free graph exactly
        # once: the chain of last-vertex deletions is unique.
        labeled = [Graph(0, ())]
        for n in range(0, 6):
            if n:
                labeled = [
                    _extend_with_vertex(parent, nbr_mask)
                    for parent in labeled
                    for nbr_mask in independent_sets(parent)
                ]
            assert len(labeled) == len({g.adj for g in labeled})
            count_by_brute = 0
            from itertools import combinations

            pairs = list(combinations(range(n), 2))
            for picks in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if (picks >> i) & 1]
                g = Graph.from_edges(n, edges)
                if not any(
                    g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
                    for a, b, c in combinations(range(n), 3)
                ):
                    count_by_brute += 1
            assert len(labeled) == count_by_brute

    def test_cap(self):
        with pytest.raises(PreconditionError):
            enumerate_alpha2(11)
        with pytest.raises(PreconditionError):
            enumerate_alpha2(5, cap=4)


class TestRandom:
    def test_deterministic(self):
        assert random_alpha2(12, 3) == random_alpha2(12, 3)
        assert random_alpha2(12, 3) != random_alpha2(12, 4)

    def test_always_independence_at_most_two(self):
        for seed in range(60):
            assert alpha_at_most_two(random_alpha2(9, seed))

    def test_chromatic_lower_bound_at_twelve(self):
        for seed in range(100):
            assert chromatic_number_alpha2(random_alpha2(12, seed)) >= 6

    def test_complement_is_maximal_triangle_free(self):
        for seed in range(20):
            g = random_alpha2(8, seed)
            t = complement(g)
            # adding any missing edge to the triangle-free side closes a triangle
            for u in range(8):
                for v in range(u + 1, 8):
                    if not t.has_edge(u, v):
                        assert t.adj[u] & t.adj[v], (u, v)


class TestNamed:
    def test_five_wheel_size(self):
        w5 = named("five_wheel")
        assert w5.n == 6 and len(w5.edges()) == 10

    def test_clique_join_independent(self):
        g = named("clique_join_independent", 2, 3)
        from alpha2minor import clique_number
        from oracles import brute_independence_number

        # clique number: the 2-clique side plus any one independent vertex
        assert clique_number(g) == 3
        # the independent side itself is a largest independent set
        assert brute_independence_number(g) == 3
        assert brute_independence_number(named("clique_join_independent", 3, 2)) == 2

    def test_join_of_cycles(self, c5):
        g = named("join", c5, c5)
        assert g.n == 10
        assert all(g.has_edge(u, v) for u in range(5) for v in range(5, 10))
        assert g == join(c5, c5)

    def test_petersen(self, petersen):
        assert petersen.n == 10
        assert len(petersen.edges()) == 15
        assert all(d == 3 for d in petersen.degrees())
        # girth 5: no triangles or 4-cycles
        from oracles import brute_independence_number

        assert brute_independence_number(petersen) == 4

    def test_unknown_name(self):
        with pytest.raises(PreconditionError):
            named("mystery")
        with pytest.raises(PreconditionError):
            named("cycle")  # missing parameter
