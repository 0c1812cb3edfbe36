import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from alpha2minor import PreconditionError
from alpha2minor.graphs import delete_vertices
from alpha2minor.matching import gallai_edmonds_d, maximum_matching
from conftest import random_graph
from oracles import brute_matching_number
from zoo import complete, cycle, path, petersen

graphs_strategy = st.builds(
    random_graph,
    n=st.integers(min_value=0, max_value=11),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10**6),
)


def test_named_graphs():
    assert len(maximum_matching(cycle(5))) == 2
    assert len(maximum_matching(complete(7))) == 3
    assert len(maximum_matching(petersen())) == 5  # perfect matching
    assert len(maximum_matching(path(1))) == 0


def test_returned_pairs_form_a_matching():
    for seed in range(50):
        g = random_graph(9, 0.35, seed)
        pairs = maximum_matching(g)
        used = [v for p in pairs for v in p]
        assert len(used) == len(set(used))
        assert all(g.has_edge(u, v) for u, v in pairs)


@settings(max_examples=250, derandomize=True)
@given(graphs_strategy)
def test_matches_brute_force(g):
    assert len(maximum_matching(g)) == brute_matching_number(g)


@settings(max_examples=120, derandomize=True)
@given(graphs_strategy)
def test_matches_networkx(g):
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges())
    assert len(maximum_matching(g)) == len(nx.max_weight_matching(ref, maxcardinality=True))


@settings(max_examples=250, derandomize=True)
@given(graphs_strategy)
def test_gallai_edmonds_d_matches_brute_force(g):
    # v is in D iff some maximum matching misses v, iff deleting v keeps the
    # matching number.
    nu = brute_matching_number(g)
    d = gallai_edmonds_d(g, maximum_matching(g))
    for v in range(g.n):
        h, _ = delete_vertices(g, (v,))
        assert (d >> v & 1 == 1) == (brute_matching_number(h) == nu)


def test_gallai_edmonds_d_rejects_a_matching_that_is_not_maximum():
    # The path 0-1-2-3 matched only in its middle has the augmenting path
    # 0-1-2-3: the trees grown from 0 and from 3 meet.
    with pytest.raises(PreconditionError):
        gallai_edmonds_d(path(4), [(1, 2)])
