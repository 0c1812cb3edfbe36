"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Everything is exact; there are no tolerances to tune.
"""

import time

import pytest

from alpha2minor import (
    CliqueJoinIndependent,
    InvariantViolation,
    chromatic_number_alpha2,
    clique_number,
    construct_chi_minor,
    construct_half_minor,
    exchange_improve,
    find_p3_packing,
    random_alpha2,
    select_edge_small_case,
    validate_model,
)
from alpha2minor import is_five_wheel
from alpha2minor.construct import ceil_half
from alpha2minor.graphs import (
    bits,
    closed_neighborhood_mask,
    delete_vertices,
    induced_subgraph,
    is_connected_mask,
)
from alpha2minor.invariants import vertex_connectivity
from alpha2minor.minors import MinorModel
from alpha2minor.packing import (
    P3Packing,
    check_packing_conditions,
    uncovered_outside_neighborhood,
)
from oracles import brute_chromatic_number, find_minor_bruteforce, verify_packing_characterization
from zoo import cycle, join


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  [{detail}]", flush=True)


def test_criterion_1_half_form_exhaustive(universe):
    started = time.monotonic()
    failures = []
    runs = 0
    for n in range(1, 10):
        for g in universe(n):
            for ell in range(1, ceil_half(n) // 2 + 1):
                runs += 1
                try:
                    cert = construct_half_minor(g, ell)
                except Exception as exc:  # noqa: BLE001 - collect, report, fail
                    failures.append((n, ell, repr(exc)))
                    continue
                if not cert.validated or validate_model(g, cert.target, cert.model):
                    failures.append((n, ell, "invalid model"))
    elapsed = time.monotonic() - started
    assert failures == []
    assert elapsed < 600
    report("1", f"half form on all graphs n<=9: {runs} constructions, {elapsed:.1f}s")


def test_criterion_2_chi_form_exhaustive(universe):
    failures = []
    runs = 0
    for n in range(1, 10):
        for g in universe(n):
            chi = chromatic_number_alpha2(g)
            for ell in range(1, chi // 2 + 1):
                runs += 1
                try:
                    cert = construct_chi_minor(g, ell)
                except Exception as exc:  # noqa: BLE001
                    failures.append((n, ell, repr(exc)))
                    continue
                if not cert.validated or validate_model(g, cert.target, cert.model):
                    failures.append((n, ell, "invalid model"))
    assert failures == []
    report("2", f"chromatic form on all graphs n<=9: {runs} constructions")


def test_criterion_3_packing_characterization(universe, five_wheel):
    mismatches = []
    checked = 0
    for n in range(1, 9):
        for g in universe(n):
            for ell in (1, 2):
                if ell == 2 and is_five_wheel(g):
                    continue
                checked += 1
                if not verify_packing_characterization(g, ell):
                    mismatches.append((n, ell))
    # the stated exception: all four conditions hold, yet no packing exists
    rep = check_packing_conditions(five_wheel)
    assert rep.holds(2) and rep.five_wheel_exception
    assert find_p3_packing(five_wheel, 2) is None
    assert mismatches == []
    report("3", f"iff over n<=8, ell in {{1,2}}: {checked} cases + five-wheel exception")


def test_criterion_4_packing_guarantee(universe):
    failures = []
    checked = 0
    for n in (1, 3, 5, 7, 9):
        for g in universe(n):
            checked += _guarantee_cases(g, n, failures)
    for n in (11, 13):
        accepted = 0
        seed = 0
        while accepted < 500:
            g = random_alpha2(n, seed)
            seed += 1
            cases = _guarantee_cases(g, n, failures)
            if cases:
                accepted += 1
                checked += cases
        assert seed < 5000
    assert failures == []
    report("4", f"guaranteed packings: {checked} (graph, ell) cases, 0 missing")


def _guarantee_cases(g, n, failures) -> int:
    if vertex_connectivity(g, (n + 2) // 4) < (n + 2) // 4:
        return 0
    if clique_number(g) >= ceil_half(n):
        return 0
    cases = 0
    for ell in range(1, (n - 1) // 4 + 1):
        if ell > (n + 3) // 4:
            break
        cases += 1
        if find_p3_packing(g, ell) is None:
            failures.append((n, ell))
    return cases


def test_criterion_5_chromatic_oracle_equivalence(universe):
    mismatches = []
    for n in range(1, 9):
        for g in universe(n):
            if chromatic_number_alpha2(g) != brute_chromatic_number(g):
                mismatches.append(g)
    for seed in range(200):
        g = random_alpha2(12, seed)
        if chromatic_number_alpha2(g) != brute_chromatic_number(g):
            mismatches.append(g)
    assert mismatches == []
    report("5", "matching-based chi equals exact coloring: n<=8 exhaustive + 200 at n=12")


def test_criterion_6_edge_recipe(universe):
    failures = []
    checked = 0
    two_clique_rejections = 0
    for n in range(2, 11):
        for g in universe(n):
            if g.is_complete():
                continue
            omega = clique_number(g)
            if n % 4 == 3:
                ell = (n + 1) // 4
                if omega > ell:
                    continue
            else:
                ell = omega
            if not is_connected_mask(g, g.vertex_mask()):
                # two disjoint cliques: no pair at distance two exists, the
                # recipe cannot apply and must say so loudly
                with pytest.raises(InvariantViolation):
                    select_edge_small_case(g, ell)
                two_clique_rejections += 1
                continue
            checked += 1
            u, v = select_edge_small_case(g, ell)
            missed = g.vertex_mask() & ~closed_neighborhood_mask(
                g, (1 << u) | (1 << v)
            )
            if not g.has_edge(u, v) or missed.bit_count() > ell - 1:
                failures.append((n, ell))
    assert failures == []
    report(
        "6",
        f"edge recipe bound on {checked} connected graphs n<=10 "
        f"(+{two_clique_rejections} disconnected two-clique rejections)",
    )


def test_criterion_7_exchange_termination_and_goal():
    built = exchanged = 0
    failures = []
    seed = 0
    while built < 1000 and seed < 8000:
        n = 6 + (seed % 6)
        g = random_alpha2(n, seed)
        seed += 1
        picked = _least_missing_edge(g)
        if picked is None:
            continue
        miss, u, v = picked
        packing = _neighborhood_confined_packing(g, u, v, miss)
        if packing is None:
            continue
        before = packing
        try:
            out = exchange_improve(g, (u, v), packing)
        except InvariantViolation as exc:
            failures.append((seed - 1, repr(exc)))
            continue
        if out != before:
            exchanged += 1
        if uncovered_outside_neighborhood(g, (u, v), out) != frozenset():
            failures.append((seed - 1, "goal missed"))
            continue
        size = len(out.triples)
        covered = out.vertex_mask() | (1 << u) | (1 << v)
        model = MinorModel(
            (frozenset((u, v)),) + tuple(frozenset(t) for t in out.triples),
            tuple(frozenset((b,)) for b in range(n) if not (covered >> b) & 1),
        )
        target = CliqueJoinIndependent(size + 1, n - 2 - 3 * size)
        if validate_model(g, target, model):
            failures.append((seed - 1, "assembled model invalid"))
            continue
        built += 1
    assert built == 1000
    assert failures == []
    assert exchanged >= 100  # the mechanism itself was genuinely exercised
    report("7", f"1000 randomized hard-case instances, {exchanged} with exchanges")


def _least_missing_edge(g):
    best = None
    for u in range(g.n):
        for v in bits(g.adj[u]):
            if v < u:
                continue
            missed = (
                g.vertex_mask() & ~closed_neighborhood_mask(g, (1 << u) | (1 << v))
            ).bit_count()
            key = (missed, u, v)
            if best is None or key < best:
                best = key
    return best


def _neighborhood_confined_packing(g, u, v, miss):
    """A packing in G minus {u, v} of size >= max(miss, 1), preferring paths
    inside N[{u, v}] so the exchange procedure has work to do."""
    closed = closed_neighborhood_mask(g, (1 << u) | (1 << v))
    inside = [x for x in bits(closed) if x not in (u, v)]
    sub, lift = induced_subgraph(g, inside)
    for size in range(sub.n // 3, 0, -1):
        if size < miss:
            break
        found = find_p3_packing(sub, size)
        if found is not None:
            return P3Packing(
                tuple(tuple(lift[x] for x in t) for t in found.triples)
            )
    gp, lift = delete_vertices(g, (u, v))
    for size in range(gp.n // 3, 0, -1):
        if size < miss:
            break
        found = find_p3_packing(gp, size)
        if found is not None:
            return P3Packing(
                tuple(tuple(lift[x] for x in t) for t in found.triples)
            )
    return None


def test_criterion_8_spot_constructions_validated_twice(c5, petersen_complement):
    spots = [
        (c5, 1, CliqueJoinIndependent(1, 2)),
        (petersen_complement, 2, CliqueJoinIndependent(2, 3)),
        (join(cycle(5), cycle(5)), 3, CliqueJoinIndependent(3, 3)),
    ]
    for g, ell, target in spots:
        chi = chromatic_number_alpha2(g)
        cert = construct_chi_minor(g, ell)
        assert cert.validated
        assert validate_model(g, cert.target, cert.model) == []
        assert cert.target == CliqueJoinIndependent(ell, chi - ell) == target
        oracle = find_minor_bruteforce(g, cert.target)
        assert oracle is not None
        assert validate_model(g, cert.target, oracle) == []
        if 2 * ell <= ceil_half(g.n):
            half = construct_half_minor(g, ell)
            assert half.validated
            assert find_minor_bruteforce(g, half.target) is not None
    report("8", "spot constructions validated by model checker and oracle")


def test_criterion_9_determinism(tmp_path, capsys):
    from alpha2minor.cli import main

    outputs = []
    for run in (1, 2):
        emit = tmp_path / f"certs{run}"
        code = main(["sweep", "5..8", "--jobs", "8", "--emit", str(emit)])
        out, _err = capsys.readouterr()
        assert code == 0
        listing = {
            p.name: p.read_bytes() for p in sorted(emit.iterdir())
        }
        outputs.append((out, listing))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    assert len(outputs[0][1]) > 0
    report(
        "9",
        f"two sweep runs with 8 jobs byte-identical: "
        f"{len(outputs[0][1])} certificates",
    )
