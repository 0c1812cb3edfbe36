import pytest

from alpha2minor import (
    PreconditionError,
    alpha_at_most_two,
    chromatic_number_alpha2,
    check_packing_conditions,
    clique_number,
    co_components,
    complement,
    is_five_wheel,
    join,
    maximum_matching,
    named,
)
from alpha2minor.construct import _critical_nonadjacent_pair
from alpha2minor.invariants import critical_vertices
from conftest import random_graph
from oracles import (
    brute_alpha_at_most_two,
    brute_chromatic_number,
    brute_clique_number,
    brute_independence_number,
    capacity,
    chi_drop_scan,
    doubled_capacity_of_mask,
    is_vertex_critical,
    scan_critical_nonadjacent_pair,
)


class TestAlphaAtMostTwo:
    def test_examples(self, c5, petersen_complement):
        assert alpha_at_most_two(c5)
        assert not alpha_at_most_two(named("cycle", 6))
        assert alpha_at_most_two(petersen_complement)

    def test_against_oracle(self):
        for seed in range(80):
            g = random_graph(7, 0.5, seed)
            assert alpha_at_most_two(g) == brute_alpha_at_most_two(g)


class TestChromaticNumber:
    def test_examples(self, c5, five_wheel, petersen_complement):
        assert chromatic_number_alpha2(c5) == 3
        assert chromatic_number_alpha2(five_wheel) == 4
        assert chromatic_number_alpha2(petersen_complement) == 5

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            chromatic_number_alpha2(named("cycle", 6))

    def test_agrees_with_exact_coloring(self, universe):
        for n in range(1, 7):
            for g in universe(n):
                assert chromatic_number_alpha2(g) == brute_chromatic_number(g)

    def test_bounds(self, universe):
        for n in range(1, 8):
            for g in universe(n):
                chi = chromatic_number_alpha2(g)
                assert (n + 1) // 2 <= chi <= n


class TestCliqueNumber:
    def test_examples(self, c5, petersen_complement, petersen):
        assert clique_number(c5) == 2
        assert clique_number(named("clique_join_independent", 2, 3)) == 3
        # maximum clique of the complement = maximum independent set
        assert brute_independence_number(petersen) == 4
        assert clique_number(petersen_complement) == 4

    def test_against_oracle(self):
        for seed in range(60):
            g = random_graph(7, 0.5, seed)
            assert clique_number(g) == brute_clique_number(g)

    def test_witness_is_clique(self):
        from alpha2minor.invariants import max_clique

        for seed in range(30):
            g = random_graph(8, 0.5, seed)
            size, witness = max_clique(g)
            assert len(witness) == size
            assert all(
                g.has_edge(u, v) for u in witness for v in witness if u < v
            )


class TestCapacity:
    def test_single_vertex_of_cycle(self, c5):
        report = capacity(c5, [0])
        assert report.complete_part == frozenset({1, 4})
        assert report.anticomplete_part == frozenset({2, 3})
        assert report.mixed_part == frozenset()
        assert report.doubled_capacity == 4

    def test_edge_of_cycle(self, c5):
        report = capacity(c5, [0, 1])
        assert report.complete_part == frozenset()
        assert report.anticomplete_part == frozenset({3})
        assert report.mixed_part == frozenset({2, 4})
        assert report.doubled_capacity == 5

    def test_whole_clique(self):
        report = capacity(named("complete", 6), range(6))
        assert report.doubled_capacity == 0

    def test_partition_property(self):
        for seed in range(25):
            g = random_graph(8, 0.5, seed)
            for v in range(g.n):
                report = capacity(g, [v])
                parts = (
                    report.clique
                    | report.complete_part
                    | report.anticomplete_part
                    | report.mixed_part
                )
                assert parts == frozenset(range(g.n))
                total = (
                    len(report.clique)
                    + len(report.complete_part)
                    + len(report.anticomplete_part)
                    + len(report.mixed_part)
                )
                assert total == g.n
                assert report.doubled_capacity == doubled_capacity_of_mask(g, 1 << v)

    def test_errors(self, c5):
        with pytest.raises(PreconditionError):
            capacity(c5, [])
        with pytest.raises(PreconditionError):
            capacity(c5, [0, 2])  # non-adjacent pair is not a clique


class TestAntiMatching:
    """An anti-matching is a set of disjoint non-adjacent pairs: a matching of
    the complement."""

    def test_examples(self, c5, five_wheel):
        assert len(maximum_matching(complement(named("complete", 6)))) == 0
        assert len(maximum_matching(complement(c5))) == 2
        assert len(maximum_matching(complement(five_wheel))) == 2

    def test_pairs_disjoint_and_nonadjacent(self):
        for seed in range(40):
            g = random_graph(9, 0.6, seed)
            pairs = maximum_matching(complement(g))
            used = [v for p in pairs for v in p]
            assert len(used) == len(set(used))
            assert all(not g.has_edge(u, v) for u, v in pairs)

    def test_size_complements_chromatic_number(self, universe):
        # The packing conditions read the anti-matching number as n - chi.
        for n in range(1, 8):
            for g in universe(n):
                size = len(maximum_matching(complement(g)))
                assert size == n - brute_chromatic_number(g)
                for ell in range(1, (n + 2) // 3 + 1):
                    assert check_packing_conditions(g, ell).anti_matching_ok == (size >= ell)


class TestFiveWheel:
    def test_recognition(self, five_wheel, c5):
        assert is_five_wheel(five_wheel)
        assert not is_five_wheel(c5)
        assert not is_five_wheel(named("complete", 6))

    def test_unique_in_six_vertex_universe(self, universe):
        hits = [g for g in universe(6) if is_five_wheel(g)]
        assert len(hits) == 1

    def test_relabeled_copies_recognized(self, five_wheel):
        from itertools import permutations

        from alpha2minor.graphs import Graph

        for perm in list(permutations(range(6)))[:100]:
            edges = [(perm[u], perm[v]) for u, v in five_wheel.edges()]
            assert is_five_wheel(Graph.from_edges(6, edges))


class TestVertexCritical:
    def test_examples(self, c5, five_wheel):
        assert is_vertex_critical(c5)
        assert is_vertex_critical(named("complete", 4))
        assert is_vertex_critical(five_wheel)

    def test_non_critical(self):
        assert not is_vertex_critical(named("path", 4))


class TestCriticalVertices:
    """chi(G - x) = chi(G) - 1 exactly for x in the Gallai-Edmonds set D of
    the complement."""

    def test_matches_deletion_scan_on_universe(self, universe):
        for n in range(1, 10):
            for g in universe(n):
                assert critical_vertices(g) == chi_drop_scan(g)

    def test_nonadjacent_pair_matches_deletion_scan(self, universe):
        for n in range(1, 10):
            for g in universe(n):
                chi = chromatic_number_alpha2(g)
                assert _critical_nonadjacent_pair(g, chi) == scan_critical_nonadjacent_pair(g, chi)


class TestCoComponents:
    def test_cycle_is_anti_connected(self, c5):
        assert co_components(c5) == [frozenset(range(5))]

    def test_clique_join_independent(self):
        comps = co_components(named("clique_join_independent", 3, 4))
        assert len(comps) == 3 + 1
        assert frozenset({3, 4, 5, 6}) in comps

    def test_join_of_cycles(self, c5):
        comps = co_components(join(c5, c5))
        assert comps == [frozenset(range(5)), frozenset(range(5, 10))]

    def test_union_and_cross_edges(self):
        for seed in range(30):
            g = random_graph(8, 0.6, seed)
            comps = co_components(g)
            assert sorted(v for c in comps for v in c) == list(range(g.n))
            for i, a in enumerate(comps):
                for b in comps[i + 1 :]:
                    assert all(g.has_edge(u, v) for u in a for v in b)
