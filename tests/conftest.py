import random

import pytest

from alpha2minor import enumerate_alpha2
from alpha2minor.graphs import Graph
from oracles import are_isomorphic, refined_colors
import zoo


@pytest.fixture(scope="session")
def c5():
    return zoo.cycle(5)


@pytest.fixture(scope="session")
def five_wheel():
    return zoo.five_wheel()


@pytest.fixture(scope="session")
def petersen():
    return zoo.petersen()


@pytest.fixture(scope="session")
def petersen_complement():
    return zoo.petersen_complement()


@pytest.fixture(scope="session")
def universe():
    """Cached exhaustive universes keyed by vertex count."""
    cache = {}

    def get(n: int):
        if n not in cache:
            cache[n] = tuple(enumerate_alpha2(n))
        return cache[n]

    return get


def random_graph(n: int, p: float, seed: int) -> Graph:
    """An arbitrary labeled graph (no independence restriction)."""
    rng = random.Random(f"{n}:{seed}")
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


# Circulant complements whose half form packs paths (PackAndContract) and
# reaches the n = 4*ell - 1 edge case (SmallCaseEdge), which no other corpus
# does.
CIRCULANTS = ((31, {1, 3, 5, 12}), (33, {1, 6, 10, 15}), (35, {1, 7, 11, 16}))


def co_circulant(n: int, steps: set[int]) -> Graph:
    """Complement of the Cayley graph Cay(Z_n, +-steps)."""
    diffs = {d % n for s in steps for d in (s, -s)}
    return Graph.from_edges(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n) if (v - u) % n not in diffs],
    )


def isomorphic(g: Graph, h: Graph) -> bool:
    """``are_isomorphic`` with each graph's refined colors computed here."""
    return are_isomorphic(g, refined_colors(g), h, refined_colors(h))
