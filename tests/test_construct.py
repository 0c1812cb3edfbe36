import ast
import io
import json
import tokenize
from collections import Counter
from pathlib import Path

import pytest

from alpha2minor import (
    CliqueJoinIndependent,
    InvariantViolation,
    PreconditionError,
    check_packing_conditions,
    chromatic_number_alpha2,
    construct_chi_minor,
    construct_half_minor,
    certificate_to_json,
    find_p3_packing,
    random_alpha2,
    select_edge_small_case,
    validate_model,
    vertex_connectivity,
)
from alpha2minor import clique_number, construct, emit_graph6, invariants, validate_packing
from alpha2minor.construct import ceil_half
from alpha2minor.graphs import Graph, closed_neighborhood_mask, delete_vertices, mask_of
from alpha2minor.minors import MinorModel
from alpha2minor.graphs import parse_graph6
from alpha2minor.invariants import _complement_matching, _critical_vertices, co_components, max_clique
from alpha2minor.packing import P3Packing
from conftest import CIRCULANTS, co_circulant
from oracles import find_minor_bruteforce
from zoo import clique_join_independent_graph, complete, cycle, join, random_joins


# The per-graph decompositions and graph6 texts that every ell of one graph
# reuses.
CONSTRUCT_CACHES = (
    construct._chi_decomposition,
    construct._half_fallback,
    construct.cached_graph6,
)


def _clear_construct_caches() -> None:
    for cached in CONSTRUCT_CACHES:
        cached.cache_clear()


@pytest.fixture
def patch_construct(monkeypatch):
    """Patch a name in ``construct`` and clear the per-graph caches, so that
    the next construction calls the patched function instead of reusing a
    decomposition built earlier; cleared again when the test ends."""

    def patch(name, value):
        monkeypatch.setattr(construct, name, value)
        _clear_construct_caches()

    yield patch
    _clear_construct_caches()


def _every_ell_json(form, g, ells, cold: bool) -> dict[int, dict]:
    """Certificate JSON for each ell, in the given order; ``cold`` clears the
    per-graph caches before each ell, otherwise only before the first."""
    _clear_construct_caches()
    out = {}
    for ell in ells:
        if cold:
            _clear_construct_caches()
        out[ell] = certificate_to_json(form(g, ell))
    return out


def _assert_cache_invisible(form, g, bound: int) -> None:
    ells = range(1, bound // 2 + 1)
    cold = _every_ell_json(form, g, ells, cold=True)
    assert _every_ell_json(form, g, ells, cold=False) == cold
    assert _every_ell_json(form, g, reversed(ells), cold=False) == cold


def _both_forms_every_ell(universe, max_n: int):
    """Certificates of both forms, every admissible ell, for n <= max_n."""
    for n in range(1, max_n + 1):
        for g in universe(n):
            for form, bound in (
                (construct_half_minor, ceil_half(n)),
                (construct_chi_minor, chromatic_number_alpha2(g)),
            ):
                for ell in range(1, bound // 2 + 1):
                    yield form(g, ell)


def _check_clique_plus_seagulls(data: dict) -> None:
    """A fallback step's K_k: singletons of a clique W, as large as the step
    graph allows up to k, plus induced 3-vertex paths in G - W that each
    dominate G; the step is taken exactly when 4*omega >= n + 3."""
    h = parse_graph6(data["graph6"])
    k = ceil_half(h.n)
    clique, triples = data["clique"], data["triples"]
    assert data["clique_number"] == clique_number(h) and 4 * clique_number(h) >= h.n + 3
    assert len(clique) == min(k, clique_number(h))
    assert all(h.has_edge(u, v) for u in clique for v in clique if u < v)
    assert len(clique) + len(triples) == k
    packing = P3Packing(tuple(tuple(t) for t in triples))
    assert validate_packing(h, packing) == []
    assert not packing.vertex_mask() & mask_of(clique)
    for t in triples:
        assert closed_neighborhood_mask(h, mask_of(t)) == h.vertex_mask()


class TestSelectEdge:
    def test_cycle(self, c5):
        edge = select_edge_small_case(c5, 2)
        assert edge == (1, 0)
        assert closed_neighborhood_mask(c5, mask_of(edge)) == c5.vertex_mask() & ~(1 << 3)

    def test_four_cycle(self):
        c4 = cycle(4)
        u, v = select_edge_small_case(c4, 2)
        assert c4.has_edge(u, v)
        assert closed_neighborhood_mask(c4, mask_of((u, v))) == c4.vertex_mask()

    def test_dominating_edge_suffices_at_one(self):
        g = clique_join_independent_graph(1, 1)  # a single edge: K2
        with pytest.raises(PreconditionError):
            select_edge_small_case(g, 1)  # complete, no non-adjacent pair
        star = clique_join_independent_graph(1, 2)  # path 1-0-2
        u, v = select_edge_small_case(star, 1)
        assert closed_neighborhood_mask(star, mask_of((u, v))) == star.vertex_mask()

    def test_bound_holds_on_connected_graphs(self, universe):
        from alpha2minor import clique_number
        from alpha2minor.graphs import is_connected_mask

        for n in range(2, 8):
            for g in universe(n):
                if g.is_complete() or not is_connected_mask(g, g.vertex_mask()):
                    continue
                ell = clique_number(g)
                u, v = select_edge_small_case(g, ell)
                missed = g.vertex_mask() & ~closed_neighborhood_mask(g, mask_of((u, v)))
                assert missed.bit_count() <= ell - 1

    def test_no_qualifying_edge_reported(self, c5):
        # Every edge of a 5-cycle misses exactly one vertex, so at ell = 1
        # (bound zero) there is no qualifying edge.
        with pytest.raises(InvariantViolation):
            select_edge_small_case(c5, 1)

    def test_ell_below_one_is_a_precondition(self, c5):
        # A caller error, not a finding: no InvariantViolation and no dump.
        for ell in (0, -1):
            with pytest.raises(PreconditionError, match="ell >= 1"):
                select_edge_small_case(c5, ell)

    def test_disconnected_two_cliques_raise(self):
        # The only disconnected graphs with independence number two are two
        # disjoint cliques; they have no pair at distance two, so the recipe
        # reports the failure loudly instead of inventing an edge.
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(InvariantViolation):
            select_edge_small_case(g, 2)


class TestHalfForm:
    def test_cycle(self, c5):
        cert = construct_half_minor(c5, 1)
        assert cert.validated
        assert cert.target == CliqueJoinIndependent(1, 2)
        assert validate_model(c5, cert.target, cert.model) == []

    def test_petersen_complement(self, petersen_complement):
        cert = construct_half_minor(petersen_complement, 2)
        assert cert.validated
        assert cert.target == CliqueJoinIndependent(2, 3)

    def test_complete_graph_direct(self):
        cert = construct_half_minor(complete(7), 2)
        assert [s.kind for s in cert.trace] == ["CliqueDirect"]
        assert cert.target == CliqueJoinIndependent(2, 2)

    def test_even_order_deletes_vertex(self, petersen_complement):
        cert = construct_half_minor(petersen_complement, 1)
        assert cert.trace[0].kind == "DeleteVertexEven"

    def test_exhaustive_small(self, universe):
        for n in range(1, 8):
            for g in universe(n):
                for ell in range(1, ceil_half(n) // 2 + 1):
                    cert = construct_half_minor(g, ell)
                    assert cert.validated
                    assert validate_model(g, cert.target, cert.model) == []

    def test_fallback_is_clique_plus_seagulls(self, universe):
        # Every fallback step, in both forms, builds K_k from the singletons
        # of a clique W and induced 3-vertex paths in G - W, each of which
        # dominates the graph the step was taken in.
        steps = 0
        for cert in _both_forms_every_ell(universe, 9):
            for step in cert.trace:
                if step.kind == "FallbackClique":
                    _check_clique_plus_seagulls(step.data)
                    steps += 1
        assert steps > 1000

    def test_no_path_reaches_the_brute_force_search(self, universe):
        # The search is a test oracle: no module of the package holds it, its
        # exception or its second target type, yet the fallbacks still fire.
        import pkgutil
        import sys
        from importlib import import_module

        import alpha2minor

        for info in pkgutil.iter_modules(alpha2minor.__path__):
            import_module(f"alpha2minor.{info.name}")
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "alpha2minor"]
        assert len(modules) >= 12
        removed = ("find_minor_bruteforce", "OracleCapExceeded", "CompleteGraph", "MinorTarget")
        for module in modules:
            for name in removed:
                assert not hasattr(module, name), (module.__name__, name)
        fallbacks = sum(
            any(s.kind == "FallbackClique" for s in cert.trace)
            for cert in _both_forms_every_ell(universe, 8)
        )
        assert fallbacks > 100

    def test_missing_seagull_packing_raises(self, patch_construct):
        g = next(
            h
            for h in (random_alpha2(11, seed) for seed in range(50))
            if construct_half_minor(h, 1).trace[0].kind == "FallbackClique"
        )
        patch_construct("find_p3_packing", lambda h, count: None)
        with pytest.raises(InvariantViolation, match="seagull") as exc:
            construct_half_minor(g, 1)
        state = exc.value.state
        assert state["graph6"] == emit_graph6(g) and state["k"] == 6
        assert len(state["clique"]) == clique_number(g)
        assert state["seagulls"] == 6 - len(state["clique"])
        beside = delete_vertices(g, state["clique"])[0]
        assert state["conditions"] == check_packing_conditions(beside)

    def test_missing_guaranteed_packing_raises(self, patch_construct):
        # The n = 31 circulant complement packs paths at ell = 1; without the
        # packing the half form has no branch left and must say so.
        n, steps = CIRCULANTS[0]
        g = co_circulant(n, steps)
        assert [step.kind for step in construct_half_minor(g, 1).trace] == ["PackAndContract"]
        patch_construct("find_p3_packing", lambda h, count: None)
        with pytest.raises(InvariantViolation, match="guaranteed path packing not found") as exc:
            construct_half_minor(g, 1)
        assert exc.value.state == {"graph6": emit_graph6(g), "ell": 1}

    def test_failed_validation_raises(self, c5, patch_construct):
        # validate_model is the package's one minor checker: a model it
        # rejects is never handed out as a certificate.
        patch_construct("validate_model", lambda g, target, model: ["planted problem"])
        with pytest.raises(InvariantViolation, match="constructed model failed validation") as exc:
            construct_half_minor(c5, 1)
        state = exc.value.state
        assert state == {"graph6": emit_graph6(c5), "ell": 1, "problems": ["planted problem"]}

    def test_missing_seagull_packing_raises_at_sixty_one(self, patch_construct):
        # The packing report scans every clique of G - W, whose count grows
        # exponentially with n: the dump leaves it out above 30 vertices.
        g = next(
            h
            for h in (random_alpha2(61, seed) for seed in range(10))
            if construct_half_minor(h, 1).trace[0].kind == "FallbackClique"
        )
        patch_construct("find_p3_packing", lambda h, count: None)
        with pytest.raises(InvariantViolation, match="seagull") as exc:
            construct_half_minor(g, 1)
        state = exc.value.state
        assert state["k"] == 31
        assert state["seagulls"] == 31 - len(state["clique"]) > 0
        assert "conditions" not in state

    def test_low_connectivity_forces_a_large_clique(self, universe):
        # The paper's fallback on kappa < ceil(n/2) lies inside the one on
        # 4*omega >= n + 3, so the half form asks omega only.
        graphs = [g for n in range(1, 10, 2) for g in universe(n) if not g.is_complete()]
        graphs += [random_alpha2(n, seed) for n in range(11, 42, 2) for seed in range(32)]
        low = 0
        for g in graphs:
            k = ceil_half(g.n)
            if vertex_connectivity(g, k) < k:
                low += 1
                assert 4 * clique_number(g) >= g.n + 3, emit_graph6(g)
        assert len(graphs) == 2017 + 512 and low > 1000

    def test_no_constructor_asks_connectivity(self, universe, monkeypatch):
        def refuse(g, cap):
            raise AssertionError(f"connectivity asked of {emit_graph6(g)}")

        # ``from .invariants import _connectivity`` copies the name, so every
        # module of the package that holds it is patched.
        assert not hasattr(construct, "_connectivity")
        for module in ("invariants", "packing"):
            monkeypatch.setattr(f"alpha2minor.{module}._connectivity", refuse)
        _clear_construct_caches()
        certs = list(_both_forms_every_ell(universe, 7))
        for g in (co_circulant(n, steps) for n, steps in CIRCULANTS):
            certs += [construct_half_minor(g, ell) for ell in range(1, ceil_half(g.n) // 2 + 1)]
            certs += [construct_chi_minor(g, ell) for ell in range(1, chromatic_number_alpha2(g) // 2 + 1)]
        assert any(step.kind == "FallbackClique" for cert in certs for step in cert.trace)

    def test_preconditions(self, c5):
        with pytest.raises(PreconditionError):
            construct_half_minor(c5, 0)
        with pytest.raises(PreconditionError):
            construct_half_minor(c5, 2)  # 4 > ceil(5/2)
        with pytest.raises(PreconditionError):
            construct_half_minor(cycle(6), 1)  # independence 3
        with pytest.raises(PreconditionError):
            construct_half_minor(Graph(0, ()), 1)


class TestChiForm:
    def test_complete(self):
        cert = construct_chi_minor(complete(6), 3)
        assert [s.kind for s in cert.trace] == ["CliqueDirect"]
        assert cert.target == CliqueJoinIndependent(3, 3)

    def test_cycle_star(self, c5):
        cert = construct_chi_minor(c5, 1)
        assert cert.trace[-1].kind == "MaxDegreeStar"
        assert cert.target == CliqueJoinIndependent(1, 2)

    def test_join_of_cycles_parity_glue(self, c5):
        g = join(c5, c5)
        assert chromatic_number_alpha2(g) == 6
        cert = construct_chi_minor(g, 3)
        assert cert.validated
        assert cert.target == CliqueJoinIndependent(3, 3)
        kinds = [s.kind for s in cert.trace]
        assert "ParityGlue" in kinds
        # the glued pairs straddle the join, one vertex per side
        glue = next(s for s in cert.trace if s.kind == "ParityGlue")
        for pair in (glue.data["glued_clique_pair"], glue.data["glued_independent_pair"]):
            assert len([v for v in pair if v < 5]) == 1
        # the per-side deleted pairs are non-adjacent within their own factor
        for pair in (glue.data["side1_pair"], glue.data["side2_pair"]):
            assert not g.has_edge(*pair)

    def test_exhaustive_small(self, universe):
        for n in range(1, 8):
            for g in universe(n):
                chi = chromatic_number_alpha2(g)
                for ell in range(1, chi // 2 + 1):
                    cert = construct_chi_minor(g, ell)
                    assert cert.validated
                    assert validate_model(g, cert.target, cert.model) == []

    def test_joins_with_an_even_order_factor(self):
        # chi = ceil(n/2) on many of these joins, so the chi form delegates to
        # the half form and its complete-minor fallback at up to 22 vertices.
        rows = fallbacks = 0
        for g in random_joins():
            chi = chromatic_number_alpha2(g)
            for ell in range(1, chi // 2 + 1):
                cert = construct_chi_minor(g, ell)
                assert cert.validated
                assert validate_model(g, cert.target, cert.model) == []
                fallbacks += any(s.kind.startswith("Fallback") for s in cert.trace)
                rows += 1
        assert rows == 119 and fallbacks > 0

    def test_wrong_gallai_edmonds_set_raises(self, c5, patch_construct):
        # join(C5, C5) is vertex-critical: every vertex is in D.  A D that
        # leaves vertex 0 out must not be trusted, even after a construction
        # on the same graph has filled the caches.
        construct_chi_minor(join(c5, c5), 2)
        patch_construct("_critical_vertices", lambda g: g.vertex_mask() & ~1)
        with pytest.raises(InvariantViolation, match="Gallai-Edmonds"):
            construct_chi_minor(join(c5, c5), 2)

    def test_preconditions(self, c5):
        with pytest.raises(PreconditionError):
            construct_chi_minor(c5, 0)
        with pytest.raises(PreconditionError):
            construct_chi_minor(c5, 2)  # chi = 3 < 4
        with pytest.raises(PreconditionError):
            construct_chi_minor(cycle(6), 1)


class TestPerGraphCaches:
    def test_cache_invisible_on_joins(self):
        # The 119 rows of test_joins_with_an_even_order_factor: certificates
        # built with cold caches, with warm ones, and for ell in descending
        # order are identical.
        rows = 0
        for g in random_joins():
            chi = chromatic_number_alpha2(g)
            _assert_cache_invisible(construct_chi_minor, g, chi)
            rows += chi // 2
        assert rows == 119

    def test_cache_invisible_on_universe(self, universe):
        for n in range(1, 8):
            for g in universe(n):
                _assert_cache_invisible(construct_half_minor, g, ceil_half(n))
                _assert_cache_invisible(
                    construct_chi_minor, g, chromatic_number_alpha2(g)
                )

    def test_invariant_caches_hold_one_graph(self):
        # The matching and max-clique caches keep only the graphs asked last;
        # they hold one graph's working set, so asking for both forms at
        # every ell again, with the decompositions rebuilt, computes nothing
        # twice.
        invariants = (_complement_matching, max_clique)
        for g in (random_alpha2(21, 0), *random_joins()):
            bounds = (
                (construct_half_minor, ceil_half(g.n)),
                (construct_chi_minor, chromatic_number_alpha2(g)),
            )
            runs = []
            for _ in range(2):
                _clear_construct_caches()
                for form, bound in bounds:
                    for ell in range(1, bound // 2 + 1):
                        form(g, ell)
                runs.append([f.cache_info() for f in invariants])
            first, second = runs
            assert [info.misses for info in second] == [info.misses for info in first]
            assert second[0].hits > first[0].hits

    def test_core_split_once_per_graph(self, patch_construct):
        # Across every ell of one join, each non-complete core is split into
        # its co-components once: the cores are the graphs the join steps
        # record.
        split = []
        patch_construct(
            "co_components", lambda h: split.append(emit_graph6(h)) or co_components(h)
        )
        total = 0
        for g in random_joins():
            _clear_construct_caches()
            split.clear()
            certs = [
                construct_chi_minor(g, ell)
                for ell in range(1, chromatic_number_alpha2(g) // 2 + 1)
            ]
            cores = {
                s.data["graph6"]
                for cert in certs
                for s in cert.trace
                if s.kind in ("JoinDecompose", "CliqueAbsorb", "ParityGlue")
            }
            assert Counter(split) == Counter(cores)
            total += len(cores)
        assert total >= 20

    def test_graph6_emitted_once_per_graph(self, patch_construct):
        # Across every ell of both forms of one join, with each certificate
        # serialized, each graph that a step or the input records is encoded
        # once.
        emitted = []
        patch_construct("emit_graph6", lambda h: emitted.append(h) or emit_graph6(h))
        for g in random_joins():
            _clear_construct_caches()
            emitted.clear()
            for form, bound in (
                (construct_chi_minor, chromatic_number_alpha2(g)),
                (construct_half_minor, ceil_half(g.n)),
            ):
                for ell in range(1, bound // 2 + 1):
                    certificate_to_json(form(g, ell))
            assert g in emitted and max(Counter(emitted).values()) == 1

    def test_seagulls_packed_once_per_graph(self, patch_construct):
        # Across every ell of one odd graph, the K_k beside the clique is
        # packed once.
        packed = []
        patch_construct(
            "find_p3_packing",
            lambda h, count: packed.append(emit_graph6(h)) or find_p3_packing(h, count),
        )
        for g in (random_alpha2(n, seed) for n in (11, 13, 15) for seed in range(8)):
            _clear_construct_caches()
            packed.clear()
            certs = [construct_half_minor(g, ell) for ell in range(1, ceil_half(g.n) // 2 + 1)]
            step = certs[0].trace[0]
            assert step.kind.startswith("Fallback")
            assert all(cert.trace == (step,) for cert in certs)
            beside = delete_vertices(g, step.data["clique"])[0]
            assert packed == [emit_graph6(beside)]

    def test_alpha_tested_on_the_input_only(self, monkeypatch):
        # The graphs a construction derives are induced subgraphs of its
        # input, so alpha <= 2 is tested on the input alone, also when no
        # matching is cached yet.
        tested = []
        alpha = invariants.alpha_at_most_two
        # packing asks through invariants, as invariants does itself.
        for module in (construct, invariants):
            monkeypatch.setattr(module, "alpha_at_most_two", lambda h: tested.append(h) or alpha(h))
        for g in random_joins():
            _clear_construct_caches()
            _complement_matching.cache_clear()
            tested.clear()
            for ell in range(1, chromatic_number_alpha2(g) // 2 + 1):
                certificate_to_json(construct_chi_minor(g, ell))
            assert set(tested) == {g}

    def test_chain_built_once_per_graph(self, patch_construct):
        # Every ell >= 2 of this join deletes the same four noncritical
        # vertices down to a complete core; D is found once per graph of
        # that chain, not once per ell.
        g = join(random_alpha2(7, 0), random_alpha2(7, 0))
        chi = chromatic_number_alpha2(g)
        asked = []
        patch_construct(
            "_critical_vertices",
            lambda h: asked.append(emit_graph6(h)) or _critical_vertices(h),
        )
        certs = [construct_chi_minor(g, ell) for ell in range(1, chi // 2 + 1)]
        chain = [
            s.data["graph6"]
            for cert in certs
            for s in cert.trace
            if s.kind == "DeleteNoncriticalVertex"
        ]
        assert len(chain) == 16 and len(set(chain)) == 4
        core = certs[-1].trace[-1]
        assert core.kind == "CliqueDirect"
        assert Counter(asked) == Counter(set(chain) | {core.data["graph6"]})


class TestCertificates:
    def test_json_schema(self, c5):
        cert = construct_chi_minor(c5, 1)
        data = certificate_to_json(cert)
        assert set(data) == {
            "input_graph6",
            "n",
            "alpha_leq_2",
            "chi",
            "ell",
            "target",
            "model",
            "trace",
            "validated",
        }
        assert data["input_graph6"] == "Dhc"
        assert data["n"] == 5 and data["chi"] == 3 and data["ell"] == 1
        assert data["alpha_leq_2"] is True and data["validated"] is True
        assert data["target"] == {"ell": 1, "m": 2}
        assert all(
            isinstance(s, list) and all(isinstance(v, int) for v in s)
            for s in data["model"]["clique_side"] + data["model"]["independent_side"]
        )
        assert all("kind" in step and "graph6" in step for step in data["trace"])
        assert parse_graph6(data["trace"][0]["graph6"]) == c5

    def test_trace_loosely_bounded(self, universe):
        for g in universe(7):
            chi = chromatic_number_alpha2(g)
            for ell in range(1, chi // 2 + 1):
                cert = construct_chi_minor(g, ell)
                assert len(cert.trace) <= 2 * g.n + 2

    def test_model_sets_sorted_for_output(self, petersen_complement):
        cert = construct_half_minor(petersen_complement, 2)
        sides = certificate_to_json(cert)["model"]
        assert sides["clique_side"] == sorted(sides["clique_side"])
        assert sides["independent_side"] == sorted(sides["independent_side"])
        assert all(s == sorted(s) for s in sides["clique_side"])

    def test_json_cannot_change_shared_steps(self):
        # The half form's fallback step is cached and shared by every ell's
        # certificate; a caller editing one certificate's JSON must not
        # change another's.
        g = random_alpha2(21, 0)
        # Text, since a dict taken now would share the step's lists.
        expected = json.dumps(certificate_to_json(construct_half_minor(g, 2)))

        def append_to_lists(value):
            if isinstance(value, list):
                value.append(999)
            if isinstance(value, (list, tuple)):
                for item in value:
                    append_to_lists(item)

        first = certificate_to_json(construct_half_minor(g, 1))
        assert first["trace"][-1]["kind"] == "FallbackClique"
        for step in first["trace"]:
            for value in step.values():
                append_to_lists(value)
        assert json.dumps(certificate_to_json(construct_half_minor(g, 2))) == expected

    def test_trace_data_is_read_only(self):
        # Cached steps are shared by every ell's certificate, so no step's
        # data can be changed in place, nor can the ell = 2 certificate
        # change through the ell = 1 one.
        g = random_alpha2(21, 0)
        expected = json.dumps(certificate_to_json(construct_half_minor(g, 2)))
        first = construct_half_minor(g, 1)
        assert first.trace[-1].kind == "FallbackClique"
        for cert in (first, construct_chi_minor(join(cycle(5), cycle(5)), 2)):
            for step in cert.trace:
                with pytest.raises(TypeError):
                    step.data["clique"] = (999,)
                with pytest.raises(TypeError):
                    del step.data["graph6"]
        assert json.dumps(certificate_to_json(construct_half_minor(g, 2))) == expected

    def test_oracle_confirms_spot_targets(self, c5, petersen_complement):
        for g, ell in ((c5, 1), (petersen_complement, 2)):
            cert = construct_chi_minor(g, ell)
            assert find_minor_bruteforce(g, cert.target) is not None
        # The console-script corpus, `gen 9 --random 3 --seed 0`: both forms,
        # every ell.
        checked = 0
        for g in (random_alpha2(9, seed) for seed in range(3)):
            for bound, constructor in (
                (ceil_half(g.n), construct_half_minor),
                (chromatic_number_alpha2(g), construct_chi_minor),
            ):
                for ell in range(1, bound // 2 + 1):
                    cert = constructor(g, ell)
                    assert find_minor_bruteforce(g, cert.target) is not None
                    checked += 1
        assert checked >= 6


class TestPackAndContractAssembly:
    def test_packed_paths_with_leftovers_always_model(self):
        # The structural fact behind the packing branch: with independence
        # number two, packed induced paths dominate everything, so they form
        # the clique side and any leftover vertices the independent side.
        from alpha2minor import random_alpha2

        built = 0
        for seed in range(40):
            g = random_alpha2(9, seed)
            for ell in (1, 2):
                packing = find_p3_packing(g, ell)
                if packing is None:
                    continue
                outside = [
                    v for v in range(g.n) if not (packing.vertex_mask() >> v) & 1
                ]
                for m in (0, 1, len(outside)):
                    model = MinorModel(
                        tuple(frozenset(t) for t in packing.triples),
                        tuple(frozenset((v,)) for v in outside[:m]),
                    )
                    assert (
                        validate_model(g, CliqueJoinIndependent(ell, m), model) == []
                    )
                    built += 1
        assert built > 20


def test_readme_tour_shows_its_values():
    """README's library tour runs, and each expression whose comment opens
    with a Python literal evaluates to that literal."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    comments = {
        tok.start[0]: (tok.string[1:].split() or [""])[0]
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = {}
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        try:
            expected = ast.literal_eval(comments.get(stmt.lineno, ""))
        except (ValueError, SyntaxError):
            continue
        assert value == expected, ast.unparse(stmt.value)
        checked[ast.unparse(stmt.value)] = value
    assert checked == {
        "a2.chromatic_number_alpha2(g)": 5,
        "a2.vertex_connectivity(g)": 6,
        "a2.vertex_connectivity(g, 7) >= 7": False,
        "a2.validate_model(g, cert.target, cert.model)": [],
        "report.holds(3)": True,
    }
