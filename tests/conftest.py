import random

import pytest

from alpha2minor import enumerate_alpha2, named
from alpha2minor.graphs import Graph
from oracles import are_isomorphic, refined_colors


@pytest.fixture(scope="session")
def c5():
    return named("cycle", 5)


@pytest.fixture(scope="session")
def five_wheel():
    return named("five_wheel")


@pytest.fixture(scope="session")
def petersen():
    return named("petersen")


@pytest.fixture(scope="session")
def petersen_complement():
    return named("petersen_complement")


@pytest.fixture(scope="session")
def universe():
    """Cached exhaustive universes keyed by vertex count."""
    cache = {}

    def get(n: int):
        if n not in cache:
            cache[n] = enumerate_alpha2(n)
        return cache[n]

    return get


def random_graph(n: int, p: float, seed: int) -> Graph:
    """An arbitrary labeled graph (no independence restriction)."""
    rng = random.Random(f"{n}:{seed}")
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def isomorphic(g: Graph, h: Graph) -> bool:
    """``are_isomorphic`` with each graph's refined colors computed here."""
    return are_isomorphic(g, refined_colors(g), h, refined_colors(h))
