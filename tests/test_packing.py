from collections import Counter

import pytest

from alpha2minor import (
    PreconditionError,
    check_packing_conditions,
    exchange_improve,
    find_p3_packing,
    random_alpha2,
    validate_packing,
)
from alpha2minor.graphs import Graph, emit_graph6, parse_graph6
from alpha2minor.invariants import _connectivity, minimum_clique_capacity
from alpha2minor.packing import P3Packing, uncovered_outside_neighborhood
from oracles import (
    brute_chromatic_number,
    brute_min_doubled_capacity,
    brute_packing_exists,
    brute_vertex_connectivity,
    verify_packing_characterization,
)
from zoo import complete, cycle


class TestFindPacking:
    def test_cycle_single_path(self, c5):
        packing = find_p3_packing(c5, 1)
        assert packing.triples == ((0, 1, 2),)
        assert validate_packing(c5, packing) == []

    def test_complete_graph_has_none(self):
        assert find_p3_packing(complete(7), 1) is None

    def test_five_wheel_has_no_two(self, five_wheel):
        # Cross-checked by an independent combination-based search.
        assert find_p3_packing(five_wheel, 2) is None
        assert not brute_packing_exists(five_wheel, 2)

    def test_zero_is_trivial(self, c5):
        assert find_p3_packing(c5, 0) == P3Packing(())

    def test_agrees_with_combination_oracle(self, universe):
        for n in range(1, 7):
            for g in universe(n):
                for ell in (1, 2):
                    found = find_p3_packing(g, ell)
                    assert (found is not None) == brute_packing_exists(g, ell)
                    if found is not None:
                        assert validate_packing(g, found) == []


class TestConditions:
    def test_cycle(self, c5):
        report = check_packing_conditions(c5)
        assert report.size >= 1 and report.connectivity >= 1
        assert report.min_doubled_capacity >= 2 and report.anti_matching >= 1
        assert not report.five_wheel_exception
        assert report.holds(1)
        # The minimum is over every clique, whatever ell is: a single cycle
        # vertex (two complete and two anticomplete vertices) has doubled
        # capacity 4, below an edge's 5 (two mixed, one anticomplete).
        assert report.min_doubled_capacity == 4
        assert report.min_capacity_clique == frozenset({0})
        # At ell = 2 the capacity condition holds and the size one fails.
        assert report.min_doubled_capacity >= 4 and report.size < 2  # 5 < 3 * 2

    def test_complete_fails_anti_matching(self):
        report = check_packing_conditions(complete(6))
        assert report.anti_matching < 1
        assert not report.holds(1)

    def test_five_wheel_exception_case(self, five_wheel):
        report = check_packing_conditions(five_wheel)
        assert report.holds(2)
        assert report.five_wheel_exception
        assert find_p3_packing(five_wheel, 2) is None

    def test_capacity_witness_is_clique(self, universe):
        for g in universe(6):
            report = check_packing_conditions(g)
            members = sorted(report.min_capacity_clique)
            assert members
            assert all(
                g.has_edge(u, v) for u in members for v in members if u < v
            )

    def test_minimum_capacity_matches_all_clique_scan(self, universe):
        # Value and witness (fewest vertices, then smallest mask) both.
        for n in range(1, 8):
            for g in universe(n):
                assert minimum_clique_capacity(g) == brute_min_doubled_capacity(g)
        for seed in range(6):
            g = random_alpha2(14, seed)
            assert minimum_clique_capacity(g) == brute_min_doubled_capacity(g)
        # Removing vertex 0 from the maximal clique {0, 1, 2, 3} turns mixed
        # vertices into complete ones, so the minimum lies at a sub-clique of
        # a maximal clique whose own doubled capacity (8) clears 2 * 3.
        g = parse_graph6("G~]K[[")
        assert minimum_clique_capacity(g) == (5, frozenset({1, 2, 3}))
        assert brute_min_doubled_capacity(g) == (5, frozenset({1, 2, 3}))
        report = check_packing_conditions(g)
        assert report.min_doubled_capacity == 5
        assert report.min_capacity_clique == frozenset({1, 2, 3})
        assert report.min_doubled_capacity < 2 * 3

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            check_packing_conditions(cycle(6))

    def test_connectivity_pass_run_once(self, universe, monkeypatch):
        # kappa comes from one capped pass, not one test per candidate bound;
        # from n = 9 on, the bound n // 3 reaches 3.
        passes = Counter()
        monkeypatch.setattr(
            "alpha2minor.packing._connectivity",
            lambda g, cap: passes.update([g]) or _connectivity(g, cap),
        )
        for g in universe(9):
            check_packing_conditions(g)
        assert len(passes) == len(universe(9)) and max(passes.values()) == 1

    def test_negative_size(self, c5):
        with pytest.raises(PreconditionError):
            check_packing_conditions(c5).holds(-1)

    def test_holds_matches_brute_force_conditions(self, universe):
        # Every ell from 0 past the largest possible packing size.
        for n in range(1, 9):
            for g in universe(n):
                report = check_packing_conditions(g)
                kappa = brute_vertex_connectivity(g)
                doubled, _ = brute_min_doubled_capacity(g)
                anti_matching = n - brute_chromatic_number(g)
                for ell in range(n + 2):
                    expected = (
                        n >= 3 * ell
                        and kappa >= ell
                        and doubled >= 2 * ell
                        and anti_matching >= ell
                    )
                    assert report.holds(ell) == expected, (emit_graph6(g), ell)


class TestCharacterization:
    def test_positive_and_negative_sides(self, c5):
        assert verify_packing_characterization(c5, 1)
        assert verify_packing_characterization(complete(6), 1)

    def test_five_wheel_excluded(self, five_wheel):
        with pytest.raises(PreconditionError):
            verify_packing_characterization(five_wheel, 2)
        assert verify_packing_characterization(five_wheel, 1)


def _exchange_instance(extra_edges):
    """Vertices 0..5: edge (0, 1), packed path 2-3-4 inside N[{0, 1}], b = 5
    attached per ``extra_edges``."""
    base = [(0, 1), (2, 3), (3, 4)]
    base += [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
    return Graph.from_edges(6, base + extra_edges)


class TestExchange:
    def test_case_both_endpoints(self):
        g = _exchange_instance([(5, 2), (5, 4)])
        out = exchange_improve(g, (0, 1), P3Packing(((2, 3, 4),)))
        assert out.triples == ((4, 5, 2),)

    def test_case_first_endpoint_only(self):
        g = _exchange_instance([(5, 2)])
        out = exchange_improve(g, (0, 1), P3Packing(((2, 3, 4),)))
        assert out.triples == ((3, 2, 5),)

    def test_case_first_endpoint_and_middle(self):
        g = _exchange_instance([(5, 2), (5, 3)])
        out = exchange_improve(g, (0, 1), P3Packing(((2, 3, 4),)))
        assert out.triples == ((4, 3, 5),)

    def test_mirrored_last_endpoint_only(self):
        g = _exchange_instance([(5, 4)])
        out = exchange_improve(g, (0, 1), P3Packing(((2, 3, 4),)))
        assert out.triples == ((3, 4, 5),)

    def test_mirrored_last_endpoint_and_middle(self):
        g = _exchange_instance([(5, 4), (5, 3)])
        out = exchange_improve(g, (0, 1), P3Packing(((2, 3, 4),)))
        assert out.triples == ((2, 3, 5),)

    def test_result_reaches_goal(self):
        for extra in ([(5, 2)], [(5, 4)], [(5, 2), (5, 4)], [(5, 2), (5, 3)]):
            g = _exchange_instance(extra)
            out = exchange_improve(g, (0, 1), P3Packing(((2, 3, 4),)))
            assert validate_packing(g, out) == []
            assert uncovered_outside_neighborhood(g, (0, 1), out) == frozenset()

    def test_errors(self, c5):
        with pytest.raises(PreconditionError):
            exchange_improve(c5, (0, 2), P3Packing(()))  # not an edge
        with pytest.raises(PreconditionError):
            exchange_improve(c5, (0, 1), P3Packing(((0, 1, 2),)))  # overlaps edge
        g = _exchange_instance([(5, 2)])
        with pytest.raises(PreconditionError):
            exchange_improve(g, (0, 1), P3Packing(((2, 4, 3),)))  # not a path
