import random

import pytest

from alpha2minor import (
    Certificate,
    CliqueJoinIndependent,
    MinorModel,
    certificate_to_json,
    chromatic_number_alpha2,
    construct_chi_minor,
    construct_half_minor,
    validate_model,
)
from alpha2minor.minors import normalized_model
from conftest import random_graph
from oracles import SearchCapExceeded, find_minor_bruteforce, naive_model_check
from zoo import clique_join_independent_graph, complete, cycle, path


def fs(*vs):
    return frozenset(vs)


class TestValidateModel:
    def test_five_wheel_star(self, five_wheel):
        model = MinorModel((fs(5),), (fs(0), fs(2)))
        assert validate_model(five_wheel, CliqueJoinIndependent(1, 2), model) == []

    def test_overlapping_sets(self, c5):
        model = MinorModel((fs(0, 1), fs(1, 2)), ())
        problems = validate_model(c5, CliqueJoinIndependent(2, 0), model)
        assert any("disjoint" in p for p in problems)

    def test_disconnected_branch_set(self, c5):
        model = MinorModel((fs(0, 2),), (fs(1),))
        problems = validate_model(c5, CliqueJoinIndependent(1, 1), model)
        assert any("not connected" in p for p in problems)

    def test_count_mismatch(self, c5):
        model = MinorModel((fs(0),), ())
        problems = validate_model(c5, CliqueJoinIndependent(2, 0), model)
        assert any("target needs" in p for p in problems)

    def test_missing_join(self):
        g = path(4)
        model = MinorModel((fs(0), fs(3)), ())
        problems = validate_model(g, CliqueJoinIndependent(2, 0), model)
        assert any("no edge" in p for p in problems)

    def test_no_constraint_inside_independent_side(self):
        g = clique_join_independent_graph(1, 3)
        model = MinorModel((fs(0),), (fs(1), fs(2), fs(3)))
        assert validate_model(g, CliqueJoinIndependent(1, 3), model) == []

    def test_agrees_with_naive_checker_on_random_models(self):
        rng = random.Random(99)
        agree = 0
        for trial in range(1000):
            g = random_graph(rng.randrange(2, 9), rng.uniform(0.2, 0.9), trial)
            verts = list(range(g.n))
            rng.shuffle(verts)
            ell = rng.randrange(1, 4)
            m = rng.randrange(0, 3)
            sets = []
            idx = 0
            for _ in range(ell + m):
                size = rng.randrange(0, 3)
                sets.append(frozenset(verts[idx : idx + size]))
                idx += size
            model = MinorModel(tuple(sets[:ell]), tuple(sets[ell:]))
            mine = validate_model(g, CliqueJoinIndependent(ell, m), model) == []
            theirs = naive_model_check(
                g, ell, m, model.clique_side, model.independent_side
            )
            assert mine == theirs
            agree += 1
        assert agree == 1000


class TestBruteForce:
    def test_cycle_has_triangle_minor(self, c5):
        model = find_minor_bruteforce(c5, CliqueJoinIndependent(3, 0))
        assert model is not None
        assert validate_model(c5, CliqueJoinIndependent(3, 0), model) == []

    def test_cycle_has_no_k4_minor(self, c5):
        assert find_minor_bruteforce(c5, CliqueJoinIndependent(4, 0)) is None

    def test_petersen_complement_clique_join(self, petersen_complement):
        target = CliqueJoinIndependent(2, 3)
        model = find_minor_bruteforce(petersen_complement, target)
        assert model is not None
        assert validate_model(petersen_complement, target, model) == []

    def test_more_sets_than_vertices(self, c5):
        assert find_minor_bruteforce(c5, CliqueJoinIndependent(6, 0)) is None

    def test_clique_join_found_whenever_complete_found(self, universe):
        for g in universe(6):
            for ell in (1, 2):
                for m in (1, 2):
                    whole = find_minor_bruteforce(g, CliqueJoinIndependent(ell + m, 0))
                    if whole is not None:
                        part = find_minor_bruteforce(g, CliqueJoinIndependent(ell, m))
                        assert part is not None

    def test_size_guard(self):
        g = complete(16)
        with pytest.raises(SearchCapExceeded):
            find_minor_bruteforce(g, CliqueJoinIndependent(5, 0), max_n=14)

    def test_node_budget(self):
        g = cycle(12)
        with pytest.raises(SearchCapExceeded):
            find_minor_bruteforce(g, CliqueJoinIndependent(4, 0), node_budget=10)

    def test_multi_vertex_branch_sets_needed(self, petersen):
        # The Petersen graph has clique number 2 but a K5 minor (contract a
        # perfect matching), so the search must grow non-singleton sets.
        model = find_minor_bruteforce(petersen, CliqueJoinIndependent(5, 0))
        assert model is not None
        assert validate_model(petersen, CliqueJoinIndependent(5, 0), model) == []
        assert any(len(s) > 1 for s in model.all_sets())

    def test_series_parallel_negative(self):
        # Cycles have no complete minor on four vertices; the exhaustive
        # search must prove the absence.
        assert find_minor_bruteforce(cycle(9), CliqueJoinIndependent(4, 0)) is None


def _hand_certificate(g, target, model):
    # A certificate as ``_finish`` stores it: the model normalized.
    return Certificate(
        g, target.ell, chromatic_number_alpha2(g), target, normalized_model(model), (), True
    )


class TestJson:
    def test_fragment_roundtrip(self, c5):
        target = CliqueJoinIndependent(1, 2)
        model = MinorModel((fs(1, 0),), (fs(4), fs(2)))
        data = certificate_to_json(_hand_certificate(c5, target, model))
        assert data["target"] == {"ell": 1, "m": 2}
        assert data["model"] == {"clique_side": [[0, 1]], "independent_side": [[2], [4]]}
        back = MinorModel(
            tuple(frozenset(s) for s in data["model"]["clique_side"]),
            tuple(frozenset(s) for s in data["model"]["independent_side"]),
        )
        assert back == MinorModel((fs(0, 1),), (fs(2), fs(4)))
        assert validate_model(c5, target, back) == []

    def test_complete_target_fragment(self):
        # No constructor emits an m = 0 target; the JSON still holds one.
        target = CliqueJoinIndependent(3, 0)
        model = MinorModel((fs(2), fs(0), fs(1)), ())
        data = certificate_to_json(_hand_certificate(complete(3), target, model))
        assert data["target"] == {"ell": 3, "m": 0}
        assert data["model"] == {"clique_side": [[0], [1], [2]], "independent_side": []}

    def test_certificate_sides_read_back(self, c5):
        # The JSON lists the sets of the model the constructor normalized:
        # sorted sets in sorted sides, which read back to that model.
        for g in (c5, complete(3)):
            forms = (
                ((g.n + 1) // 2, construct_half_minor),
                (chromatic_number_alpha2(g), construct_chi_minor),
            )
            for bound, constructor in forms:
                for ell in range(1, bound // 2 + 1):
                    cert = constructor(g, ell)
                    data = certificate_to_json(cert)
                    sides = data["model"]
                    for side in sides.values():
                        assert side == sorted(side)
                        assert all(s == sorted(s) for s in side)
                    back = MinorModel(
                        tuple(frozenset(s) for s in sides["clique_side"]),
                        tuple(frozenset(s) for s in sides["independent_side"]),
                    )
                    target = CliqueJoinIndependent(**data["target"])
                    assert (target, back) == (cert.target, cert.model)
                    assert validate_model(g, target, back) == []
