import importlib
import pkgutil
from itertools import combinations

import pytest

import alpha2minor
from alpha2minor import (
    PreconditionError,
    alpha_at_most_two,
    chromatic_number_alpha2,
    check_packing_conditions,
    clique_number,
    co_components,
    complement,
    is_five_wheel,
    maximum_matching,
)
from alpha2minor.graphs import Graph
from alpha2minor.invariants import _critical_vertices
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
    rim_is_c5,
    scan_critical_nonadjacent_pair,
)
from zoo import clique_join_independent_graph, complete, cycle, join, path


class TestAlphaAtMostTwo:
    def test_examples(self, c5, petersen_complement):
        assert alpha_at_most_two(c5)
        assert not alpha_at_most_two(cycle(6))
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
            chromatic_number_alpha2(cycle(6))

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
        assert clique_number(clique_join_independent_graph(2, 3)) == 3
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
        report = capacity(complete(6), range(6))
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
        assert len(maximum_matching(complement(complete(6)))) == 0
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
                assert check_packing_conditions(g).anti_matching == size


class TestFiveWheel:
    def test_recognition(self, five_wheel, c5):
        assert is_five_wheel(five_wheel)
        assert not is_five_wheel(c5)
        assert not is_five_wheel(complete(6))

    def test_unique_in_six_vertex_universe(self, universe):
        hits = [g for g in universe(6) if is_five_wheel(g)]
        assert len(hits) == 1

    def test_relabeled_copies_recognized(self, five_wheel):
        from itertools import permutations

        for perm in list(permutations(range(6)))[:100]:
            edges = [(perm[u], perm[v]) for u, v in five_wheel.edges()]
            assert is_five_wheel(Graph.from_edges(6, edges))

    def test_degrees_decide_on_every_labelled_graph(self):
        # All 2**15 graphs on six labelled vertices; W5 has
        # 6!/|Aut W5| = 720/10 = 72 labellings.
        pairs = list(combinations(range(6), 2))
        hits = 0
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(6, [p for i, p in enumerate(pairs) if mask >> i & 1])
            assert is_five_wheel(g) == rim_is_c5(g)
            hits += is_five_wheel(g)
        assert hits == 72


class TestVertexCritical:
    def test_examples(self, c5, five_wheel):
        assert is_vertex_critical(c5)
        assert is_vertex_critical(complete(4))
        assert is_vertex_critical(five_wheel)

    def test_non_critical(self):
        assert not is_vertex_critical(path(4))


class TestCriticalVertices:
    """chi(G - x) = chi(G) - 1 exactly for x in the Gallai-Edmonds set D of
    the complement."""

    def test_matches_deletion_scan_on_universe(self, universe):
        for n in range(1, 10):
            for g in universe(n):
                assert _critical_vertices(g) == chi_drop_scan(g)

    def test_first_nonadjacent_pair_matches_deletion_scan(self, universe):
        # ParityGlue deletes a factor's first non-adjacent pair: on every
        # vertex-critical non-complete graph, that is the scan's pair.
        checked = 0
        for n in range(1, 10):
            for g in universe(n):
                if g.is_complete() or chi_drop_scan(g) != g.vertex_mask():
                    continue
                first = next(p for p in combinations(range(n), 2) if not g.has_edge(*p))
                assert first == scan_critical_nonadjacent_pair(g, chromatic_number_alpha2(g))
                checked += 1
        assert checked == 193


class TestCoComponents:
    def test_cycle_is_anti_connected(self, c5):
        assert co_components(c5) == [frozenset(range(5))]

    def test_clique_join_independent(self):
        comps = co_components(clique_join_independent_graph(3, 4))
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


def test_every_cache_is_bounded():
    # A sweep's memory must not grow with its universe: every cache of the
    # package keeps at most the 256 entries asked for last.
    sizes = {}
    for info in pkgutil.iter_modules(alpha2minor.__path__):
        module = importlib.import_module(f"alpha2minor.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                sizes[f"{info.name}.{name}"] = value.cache_parameters()["maxsize"]
    assert {"invariants.alpha_at_most_two", "invariants._complement_matching", "cliques.max_clique"} <= set(sizes)
    assert {name: size for name, size in sizes.items() if size is None or size > 256} == {}
