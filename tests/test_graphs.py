import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from alpha2minor import (
    Graph,
    invariants,
    alpha_at_most_two,
    chromatic_number_alpha2,
    Graph6Error,
    PreconditionError,
    complement,
    emit_graph6,
    induced_subgraph,
    parse_graph6,
    random_alpha2,
    vertex_connectivity,
)
from alpha2minor.generate import _extend_with_vertex
from alpha2minor.graphs import (
    _graph_unchecked,
    closed_neighborhood_mask,
    delete_vertices,
    is_connected_mask,
    mask_of,
)
from conftest import co_circulant, isomorphic, random_graph
from oracles import brute_alpha_at_most_two, brute_vertex_connectivity
from zoo import complete, cycle, path, petersen, random_joins

graphs_strategy = st.builds(
    random_graph,
    n=st.integers(min_value=0, max_value=16),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10**6),
)


class TestGraphType:
    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph(2, (0b10, 0b00))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(1, (0b1,))

    def test_rejects_out_of_range_neighbor(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, (0b100, 0b001))

    def test_public_constructors_keep_checks(self):
        # The unchecked constructor trusts its caller; the public ones do not.
        for n, rows in ((2, (0b10, 0b00)), (1, (0b1,)), (2, (0b100, 0b001))):
            assert _graph_unchecked(n, rows).adj == rows
            with pytest.raises(ValueError):
                Graph(n, rows)
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(2, [(1, 1)])
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 2)])

    def test_list_rows_stored_as_tuple(self):
        # A list of rows would leave the graph unhashable for the caches.
        g = Graph(3, [6, 5, 3])
        assert g.adj == (6, 5, 3)
        assert g == parse_graph6("Bw")
        assert chromatic_number_alpha2(g) == 3

    def test_derived_graphs_equal_checked_construction(self):
        rng = random.Random(7)
        for seed in range(60):
            g = random_graph(rng.randrange(13), rng.random(), seed)
            keep = [v for v in range(g.n) if rng.random() < 0.6]
            mask = rng.randrange(1 << g.n)
            n, edges = g.n, g.edges()
            non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
            index = {v: i for i, v in enumerate(keep)}
            kept = [(index[u], index[v]) for u, v in edges if u in index and v in index]
            added = [(v, n) for v in range(n) if mask >> v & 1]
            derived = [
                (complement(g), Graph.from_edges(n, non_edges)),
                (induced_subgraph(g, keep)[0], Graph.from_edges(len(keep), kept)),
                (_extend_with_vertex(g, mask), Graph.from_edges(n + 1, edges + added)),
            ]
            for h, expected in derived:
                assert h == Graph(h.n, h.adj) == expected

    def test_from_edges(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.edges() == [(0, 1), (1, 2)]
        assert g.degrees() == [1, 2, 1]

    @pytest.mark.parametrize("n", [0, 5, 70])
    def test_repr_evaluates_back(self, n):
        g = random_graph(n, 0.5, n)
        assert eval(repr(g), {"parse_graph6": parse_graph6}) == g


class TestComplement:
    def test_c5_self_complementary(self, c5):
        assert isomorphic(complement(c5), c5)

    def test_complete_gives_edgeless(self):
        for n in range(6):
            co = complement(complete(n))
            assert len(co.edges()) == 0

    def test_petersen_complement_has_independence_two(self, petersen_complement):
        # Independent triples in the complement are triangles of the Petersen
        # graph, and the triple scan finds none.
        assert brute_alpha_at_most_two(petersen_complement)

    @settings(max_examples=150, derandomize=True)
    @given(graphs_strategy)
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestInducedSubgraph:
    def test_empty(self, c5):
        h, lift = induced_subgraph(c5, [])
        assert h.n == 0 and lift == ()

    def test_consecutive_cycle_vertices_give_path(self, c5):
        h, lift = induced_subgraph(c5, [0, 1, 2])
        assert h == path(3)
        assert lift == (0, 1, 2)

    def test_identity(self, c5):
        h, _ = induced_subgraph(c5, range(5))
        assert h == c5

    def test_out_of_range(self, c5):
        with pytest.raises(PreconditionError):
            induced_subgraph(c5, [0, 7])
        # Deleting a vertex that is not there is an error too, not a no-op.
        for vertex in (99, -1, 5):
            with pytest.raises(PreconditionError, match="vertex out of range"):
                delete_vertices(c5, [vertex])

    @settings(max_examples=120, derandomize=True)
    @given(graphs_strategy, st.integers(min_value=0, max_value=10**6))
    def test_edges_match_edge_by_edge_oracle(self, g, seed):
        import random

        rng = random.Random(seed)
        chosen = sorted(v for v in range(g.n) if rng.random() < 0.6)
        h, lift = induced_subgraph(g, chosen)
        assert h.n == len(chosen)
        for i, u in enumerate(chosen):
            for j, v in enumerate(chosen):
                if i < j:
                    assert h.has_edge(i, j) == g.has_edge(u, v)
        assert lift == tuple(chosen)

    @settings(max_examples=150, derandomize=True)
    @given(st.data())
    def test_squeezed_rows_match_definition(self, data):
        # Orders past one 64-bit word; vertex lists empty, full, unsorted or
        # with repeats.
        n = data.draw(st.sampled_from((0, 1, 2, 7, 16, 63, 64, 65, 70)))
        g = random_graph(n, data.draw(st.floats(0.0, 1.0)), data.draw(st.integers(0, 10**6)))
        vertices = data.draw(
            st.one_of(
                st.just([]),
                st.permutations(range(n)),
                st.lists(st.integers(0, max(n - 1, 0)), max_size=2 * n),
            )
        )
        h, lift = induced_subgraph(g, vertices)
        index = {v: i for i, v in enumerate(sorted(set(vertices)))}
        kept = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
        assert h == Graph.from_edges(len(index), kept)
        assert lift == tuple(sorted(set(vertices)))
        bad = data.draw(st.sampled_from((-1, n, n + 64)))
        with pytest.raises(PreconditionError):
            induced_subgraph(g, list(vertices) + [bad])


class TestClosedNeighborhood:
    def test_empty(self, c5):
        assert closed_neighborhood_mask(c5, 0) == 0

    def test_cycle_pair(self, c5):
        assert closed_neighborhood_mask(c5, mask_of([0, 1])) == mask_of({0, 1, 2, 4})

    def test_whole_vertex_set(self, c5):
        assert closed_neighborhood_mask(c5, c5.vertex_mask()) == c5.vertex_mask()

    def test_induced_path_dominates(self, petersen_complement):
        # With independence number two, every vertex off an induced 3-vertex
        # path a1-a2-a3 is adjacent to a1 or a3, so a contracted path is
        # adjacent to every remaining vertex.
        from alpha2minor import find_p3_packing

        g = petersen_complement
        triple = find_p3_packing(g, 1).triples[0]
        assert closed_neighborhood_mask(g, mask_of(triple)) == g.vertex_mask()


class TestVertexConnectivity:
    def test_complete(self):
        assert vertex_connectivity(complete(5)) == 4

    def test_cycle(self, c5):
        assert vertex_connectivity(c5) == 2

    def test_petersen_complement(self, petersen_complement):
        expected = brute_vertex_connectivity(petersen_complement)
        assert expected == 6
        assert vertex_connectivity(petersen_complement) == 6

    def test_disconnected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert vertex_connectivity(g) == 0

    def test_at_most_min_degree(self):
        for g in (*random_joins(), *(random_alpha2(n, seed) for n in (8, 9) for seed in range(20))):
            if not g.is_complete():
                assert vertex_connectivity(g) <= min(g.degrees()), emit_graph6(g)

    def test_agrees_with_separator_oracle_and_fast_path(self):
        for g in (*(random_alpha2(7, seed) for seed in range(60)), *_two_cliques(7)):
            kappa = vertex_connectivity(g)
            assert kappa == brute_vertex_connectivity(g)
            for k in range(0, 8):
                assert (vertex_connectivity(g, k) >= k) == (kappa >= k)

    @pytest.mark.parametrize("g", [cycle(6), petersen(), Graph(3, (0, 0, 0))], ids=["C6", "Petersen", "3K1"])
    def test_independent_triple_raises(self, g):
        with pytest.raises(PreconditionError):
            vertex_connectivity(g)
        for k in (0, 1, 2):
            with pytest.raises(PreconditionError):
                vertex_connectivity(g, k)


def _two_cliques(n: int) -> list[Graph]:
    """Two disjoint cliques on a and n - a vertices, for 1 <= a <= n // 2."""
    return [
        Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if (u < a) == (v < a)])
        for a in range(1, n // 2 + 1)
    ]


def _networkx_kappa(g: Graph) -> int:
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges())
    return nx.node_connectivity(ref)


def _no_matching(adj, left, right, limit):
    raise AssertionError(f"matching asked between {left:#x} and {right:#x}")


def _assert_kernel_matches_oracle(graphs, oracle=brute_vertex_connectivity) -> None:
    for g in graphs:
        kappa = oracle(g)
        assert vertex_connectivity(g) == kappa, emit_graph6(g)
        # k = -1 and n + 1 are past both ends of kappa's range.
        for k in range(-1, g.n + 2):
            assert vertex_connectivity(g, k) == min(kappa, k), (emit_graph6(g), k)


class TestConnectivityKernel:
    """The matching kernel against the separator scan or networkx, for every k."""

    def test_exhaustive_alpha2_universe(self, universe):
        _assert_kernel_matches_oracle(g for n in range(1, 9) for g in universe(n))

    def test_random_alpha2(self):
        _assert_kernel_matches_oracle(
            random_alpha2(n, seed) for n in (11, 13) for seed in range(12)
        )

    def test_joins_and_two_cliques(self):
        # The joins reach kappa = 13 on 22 vertices, past the separator scan.
        _assert_kernel_matches_oracle(random_joins(), _networkx_kappa)
        _assert_kernel_matches_oracle(g for n in range(2, 12) for g in _two_cliques(n))

    def test_matches_networkx_at_larger_orders(self):
        # Orders the separator scan cannot reach.
        for n in (21, 31, 41):
            for seed in range(3):
                g = random_alpha2(n, seed)
                kappa = _networkx_kappa(g)
                assert vertex_connectivity(g) == kappa, emit_graph6(g)
                assert vertex_connectivity(g, kappa) == vertex_connectivity(g, kappa + 1) == kappa

    def test_one_connected_is_connected(self, universe):
        # K_1 is connected but, with kappa(K_n) = n - 1, not 1-connected.
        for n in range(1, 8):
            for g in universe(n):
                connected = is_connected_mask(g, g.vertex_mask())
                assert (vertex_connectivity(g, 1) >= 1) == (connected and n >= 2)

    def test_pairs_at_or_above_the_bound_match_nothing(self, universe, monkeypatch):
        # kappa(a, b) >= deg a + deg b + 2 - n, so a cap at the least such
        # base over the non-edges is the answer, found without a matching.
        monkeypatch.setattr(invariants, "_matching_number", _no_matching)
        for n in range(1, 8):
            for g in universe(n):
                d = g.degrees()
                non_edges = [(a, b) for a in range(n) for b in range(a + 1, n) if not g.has_edge(a, b)]
                base = min((d[a] + d[b] + 2 - n for a, b in non_edges), default=n - 1)
                assert vertex_connectivity(g, base) == base, emit_graph6(g)

    @pytest.mark.parametrize(
        "n,steps,kappa",
        [(31, {1, 3, 5, 12}, 22), (33, {1, 6, 10, 15}, 24), (35, {1, 7, 11, 16}, 26)],
    )
    def test_circulant_complements(self, n, steps, kappa):
        g = co_circulant(n, steps)
        assert alpha_at_most_two(g)
        assert vertex_connectivity(g, kappa + 1) == kappa
        assert vertex_connectivity(g) == kappa


class TestGraph6:
    def test_null_graph(self):
        assert emit_graph6(Graph(0, ())) == "?"
        assert parse_graph6("?") == Graph(0, ())

    def test_single_vertex(self):
        assert emit_graph6(Graph(1, (0,))) == "@"

    def test_roundtrip_cycle(self, c5):
        assert parse_graph6(emit_graph6(c5)) == c5

    def test_header_accepted(self, c5):
        assert parse_graph6(">>graph6<<" + emit_graph6(c5)) == c5

    @settings(max_examples=200, derandomize=True)
    @given(graphs_strategy)
    def test_roundtrip_random(self, g):
        assert parse_graph6(emit_graph6(g)) == g

    @settings(max_examples=100, derandomize=True)
    @given(graphs_strategy)
    def test_matches_reference_implementation(self, g):
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(g.edges())
        assert emit_graph6(g) == nx.to_graph6_bytes(ref, header=False).decode().strip()

    def test_large_vertex_count_prefix(self):
        g = Graph(63, tuple(0 for _ in range(63)))
        text = emit_graph6(g)
        assert text.startswith("~")
        assert parse_graph6(text) == g

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            ">>digraph6<<Dhc",
            "D",  # truncated bit field
            "Dhcc",  # trailing bytes
            "D\x1f",  # byte below the graph6 range
        ],
    )
    def test_malformed_inputs_raise(self, bad):
        with pytest.raises(Graph6Error):
            parse_graph6(bad)

    def test_nonzero_padding_rejected(self):
        # n=2 uses one bit of the six; chr(63+1) sets only the last padding bit.
        with pytest.raises(Graph6Error):
            parse_graph6("A" + chr(63 + 0b000001))
        assert parse_graph6("A" + chr(63)) == Graph.from_edges(2, [])


def test_delete_vertices_and_connectivity_helpers(c5):
    h, lift = delete_vertices(c5, (0,))
    assert h == path(4)
    assert lift == (1, 2, 3, 4)
    assert is_connected_mask(c5, c5.vertex_mask())
    assert not is_connected_mask(Graph.from_edges(2, []), 0b11)
    assert mask_of([0, 2]) == 0b101
