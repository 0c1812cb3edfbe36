"""Workload definitions: the CLI arguments of each workload and the graph6
corpus it reads.  All three are closed-loop batch jobs: one client, one CLI
call at a time, each in a fresh interpreter, always with ``--jobs 1``.  The
``multiprocessing`` path (``--jobs > 1``) is left out on purpose: on a
two-core shared host it would measure the scheduler, not the program.

``sweep_exhaustive``: ``sweep 1..9`` over the built-in exhaustive universe.
  The only workload that enumerates (``generate``, ``iso``), packs induced
  paths and lists maximal cliques (``packing``, ``cliques``); it also spends
  time in ``is_k_connected``.  Every ``sweep`` user pays for enumeration, so
  it is inside ``wall_s``.
``verify_random_half``: ``verify --half --emit`` over random graphs at
  n = 11, 13, 15.  The half form's fallback: ``find_minor_bruteforce`` and
  ``is_k_connected``.  Every n = 15 row fails with the oracle's size guard, so
  ``fail_ratio`` is 0.4 at the seed commit; a constructive fallback that
  turns those rows into certificates reads as a gain in ``ok_per_s``.
``verify_joins_chi``: ``verify --emit`` (chi form) over joins of two random
  graphs on 5, 7, 9 or 11 vertices.  chi < ceil(n/2), so the chi-only
  branches fire (``DeleteNoncriticalVertex``, ``JoinDecompose``,
  ``CliqueAbsorb``, ``ParityGlue``): ``induced_subgraph``, the chi cache and
  the blossom matching; ``is_k_connected`` is almost idle.

Predicted to move (and to stay unchanged), by layer:
  generate, iso: sweep_exhaustive (neither verify workload).
  graphs.is_k_connected: verify_random_half, sweep_exhaustive
    (verify_joins_chi).
  graphs.subgraph, invariants.chi/alpha, matching: verify_joins_chi
    (verify_random_half).
  packing, cliques: sweep_exhaustive (both verify workloads).
  minors.find_minor_bruteforce: verify_random_half, less on the others.
  minors.validate_model, graphs.graph6, construct, cli: a small share of
    every workload.

The corpora are fixed; the seed only shuffles the order of the lines.  Drawing
the graphs themselves from the seed makes the workload's cost a property of
the seed rather than of the program: the half form's brute-force fallback has
a heavy-tailed cost per graph (at n = 13 the standard deviation is 3.6 times
the mean), and relabelled copies of one set of 40 graphs took 2.4 to 13.5 s
over five seeds.

The corpus generator lives here rather than in the package, so a change to
``alpha2minor.random_alpha2`` cannot change what the benchmark measures.  It
draws from the same distribution: the complement of a random maximal
triangle-free graph, which has independence number at most two by
construction.
"""

from __future__ import annotations

import random

# Graphs per order.  Fixed for every commit so that runs stay comparable.
PER_ORDER = 16
RANDOM_HALF_ORDERS = (11, 13, 15)
JOIN_FACTOR_PAIRS = tuple((a, b) for a in (5, 7, 9, 11) for b in (5, 7, 9, 11) if a <= b)

WORKLOADS = ("sweep_exhaustive", "verify_random_half", "verify_joins_chi")


def random_alpha2_rows(n: int, rng: random.Random) -> list[int]:
    """Adjacency bitmasks of the complement of a random maximal triangle-free
    graph on n vertices."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    rows = [0] * n
    for u, v in pairs:
        if not rows[u] & rows[v]:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    full = (1 << n) - 1
    return [full ^ row ^ (1 << v) for v, row in enumerate(rows)]


def join_rows(a: list[int], b: list[int]) -> list[int]:
    """Disjoint union of a and b with every cross pair adjacent."""
    na, nb = len(a), len(b)
    lo = (1 << na) - 1
    hi = ((1 << nb) - 1) << na
    return [row | hi for row in a] + [(row << na) | lo for row in b]


def graph6(rows: list[int]) -> str:
    """graph6 text of a graph on at most 62 vertices."""
    n = len(rows)
    out = [chr(63 + n)]
    acc = nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((rows[j] >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def corpus(workload: str, seed: int) -> list[str]:
    """The graph6 lines a workload feeds to the CLI, in an order set by the
    seed; empty for the sweep, whose universe is built in."""
    if workload == "sweep_exhaustive":
        return []
    lines = []
    if workload == "verify_random_half":
        for n in RANDOM_HALF_ORDERS:
            rng = random.Random(f"perfbench:{workload}:{n}")
            lines += [graph6(random_alpha2_rows(n, rng)) for _ in range(PER_ORDER)]
    elif workload == "verify_joins_chi":
        for a, b in JOIN_FACTOR_PAIRS:
            rng = random.Random(f"perfbench:{workload}:{a}:{b}")
            lines += [
                graph6(join_rows(random_alpha2_rows(a, rng), random_alpha2_rows(b, rng)))
                for _ in range(PER_ORDER)
            ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(lines)
    return lines


def cli_argv(workload: str, input_path: str, emit_dir: str) -> list[str]:
    """Arguments for ``alpha2minor.cli.main``.  Always one worker process:
    with ``--jobs > 1`` a two-core shared host would measure the scheduler."""
    if workload == "sweep_exhaustive":
        return ["sweep", "1..9", "--jobs", "1"]
    if workload == "verify_random_half":
        return ["verify", input_path, "--half", "--emit", emit_dir, "--jobs", "1"]
    if workload == "verify_joins_chi":
        return ["verify", input_path, "--emit", emit_dir, "--jobs", "1"]
    raise ValueError(f"unknown workload {workload!r}")
