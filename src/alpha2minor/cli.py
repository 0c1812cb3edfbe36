"""Batch front door: verify constructions over graph6 streams, sweep the
exhaustive universe, cross-check the constructor against the brute-force
oracle, and generate test universes.

Reports are byte-deterministic for fixed inputs, flags and seeds: workers
return plain data, results are reassembled in input order, and wall-clock
timings go to stderr only.  Exit codes: 0 all succeeded, 1 at least one
failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from multiprocessing import Pool
from pathlib import Path

from .construct import (
    ceil_half,
    certificate_to_json,
    construct_chi_minor,
    construct_half_minor,
)
from .errors import Alpha2Error, OracleCapExceeded
from .generate import EXHAUSTIVE_CAP_DEFAULT, enumerate_alpha2, random_alpha2
from .graphs import emit_graph6, is_k_connected, parse_graph6
from .invariants import (
    alpha_at_most_two,
    chromatic_number_alpha2,
    clique_number,
    is_five_wheel,
)
from .minors import (
    CliqueJoinIndependent,
    CompleteGraph,
    MinorTarget,
    find_minor_bruteforce,
)
from .packing import (
    check_packing_conditions,
    find_p3_packing,
    verify_packing_characterization,
)


def _read_lines(path: str | None) -> list[tuple[int, str]]:
    """Non-blank input lines with their 1-based line numbers."""
    if path is None or path == "-":
        text = sys.stdin.read()
    else:
        text = Path(path).read_text()
    return [
        (number, line.strip())
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]


def _cert_filename(line: str, ell: int, form: str) -> str:
    digest = hashlib.sha256(line.encode()).hexdigest()[:16]
    return f"{digest}_ell{ell}_{form}.json"


def _write_certs(emit_dir: str, certs: list[tuple[str, int, str, dict]]) -> None:
    out = Path(emit_dir)
    out.mkdir(parents=True, exist_ok=True)
    for line, ell, form, payload in certs:
        target = out / _cert_filename(line, ell, form)
        target.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _run_parallel(worker, tasks: list, jobs: int) -> list:
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    chunk = max(1, len(tasks) // (4 * jobs))
    with Pool(processes=jobs) as pool:
        return pool.map(worker, tasks, chunksize=chunk)


def _ell_values(policy: str, bound: int) -> list[int]:
    if policy == "all":
        return list(range(1, bound // 2 + 1))
    return [int(policy)]


# -- verify ------------------------------------------------------------------


def _verify_worker(task: tuple[int, str, bool, str]) -> dict:
    index, line, half, ell_policy = task
    rows = []
    certs = []
    try:
        g = parse_graph6(line)
    except Alpha2Error as exc:
        return {
            "index": index,
            "line": line,
            "status": "failed",
            "rows": [
                {"ell": 0, "form": "-", "status": "failed", "reason": f"malformed graph6: {exc}"}
            ],
            "certs": [],
        }
    if not alpha_at_most_two(g):
        return {
            "index": index,
            "line": line,
            "status": "skipped",
            "rows": [
                {"ell": 0, "form": "-", "status": "skipped", "reason": "independence number exceeds 2"}
            ],
            "certs": [],
        }
    chi = chromatic_number_alpha2(g)
    bound = ceil_half(g.n) if half else chi
    form = "half" if half else "chi"
    constructor = construct_half_minor if half else construct_chi_minor
    status = "ok"
    for ell in _ell_values(ell_policy, bound):
        if ell < 1 or 2 * ell > bound:
            rows.append(
                {"ell": ell, "form": form, "status": "skipped", "reason": f"2*ell exceeds {bound}"}
            )
            continue
        try:
            cert = constructor(g, ell)
        except Alpha2Error as exc:
            rows.append({"ell": ell, "form": form, "status": "failed", "reason": str(exc)})
            status = "failed"
            continue
        rows.append({"ell": ell, "form": form, "status": "ok", "reason": ""})
        certs.append((line, ell, form, certificate_to_json(cert)))
    return {"index": index, "line": line, "status": status, "rows": rows, "certs": certs}


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    try:
        lines = _read_lines(args.input)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tasks = [(number, line, args.half, args.ell) for number, line in lines]
    results = _run_parallel(_verify_worker, tasks, args.jobs)
    totals = {"processed": len(results), "succeeded": 0, "failed": 0, "skipped": 0}
    failures = []
    all_rows = []
    certs = []
    for res in results:
        totals[
            {"ok": "succeeded", "failed": "failed", "skipped": "skipped"}[res["status"]]
        ] += 1
        for row in res["rows"]:
            all_rows.append((res["index"], res["line"], row))
            if row["status"] == "failed":
                failures.append((res["line"], row["ell"], row["reason"]))
        certs.extend(res["certs"])
    if args.emit:
        try:
            _write_certs(args.emit, certs)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.format == "json":
        payload = {
            "totals": totals,
            "results": [
                {"index": i, "graph6": line, **row} for i, line, row in all_rows
            ],
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("line,graph6,ell,form,status,reason")
        for i, line, row in all_rows:
            print(f"{i},{line},{row['ell']},{row['form']},{row['status']},{row['reason']}")
        print(
            f"# processed={totals['processed']} succeeded={totals['succeeded']}"
            f" failed={totals['failed']} skipped={totals['skipped']}"
        )
    print(f"verify: {time.monotonic() - t0:.2f}s wall", file=sys.stderr)
    return 1 if failures else 0


# -- sweep -------------------------------------------------------------------


def _sweep_worker(task: tuple[str, bool]) -> dict:
    line, want_certs = task
    g = parse_graph6(line)
    n = g.n
    chi = chromatic_number_alpha2(g)
    records = []
    certs = []
    for ell in range(1, ceil_half(n) // 2 + 1):
        try:
            cert = construct_half_minor(g, ell)
            records.append((ell, "half", "ok", ""))
            if want_certs:
                certs.append((line, ell, "half", certificate_to_json(cert)))
        except Alpha2Error as exc:
            records.append((ell, "half", "failed", str(exc)))
    for ell in range(1, chi // 2 + 1):
        try:
            cert = construct_chi_minor(g, ell)
            records.append((ell, "chi", "ok", ""))
            if want_certs:
                certs.append((line, ell, "chi", certificate_to_json(cert)))
        except Alpha2Error as exc:
            records.append((ell, "chi", "failed", str(exc)))
    for ell in range(1, (n + 2) // 3 + 1):
        if ell == 2 and is_five_wheel(g):
            # The one excluded case: all four conditions hold, yet no packing.
            report = check_packing_conditions(g, 2)
            exceptional = report.all_hold and find_p3_packing(g, 2) is None
            status = "exception" if exceptional else "failed"
            records.append((ell, "packing_iff", status, "five-wheel exclusion"))
            continue
        try:
            ok = verify_packing_characterization(g, ell)
            records.append((ell, "packing_iff", "ok" if ok else "failed", "" if ok else "iff mismatch"))
        except Alpha2Error as exc:
            records.append((ell, "packing_iff", "failed", str(exc)))
    # The hypotheses do not depend on ell, and every ell <= (n - 1) // 4 also
    # meets ell <= (n + 3) // 4; n >= 5 is where the ell range is nonempty.
    if (
        n % 2 == 1
        and n >= 5
        and is_k_connected(g, (n + 2) // 4)
        and clique_number(g) < ceil_half(n)
    ):
        for ell in range(1, (n - 1) // 4 + 1):
            found = find_p3_packing(g, ell) is not None
            records.append(
                (ell, "packing_guarantee", "ok" if found else "failed", "" if found else "no packing")
            )
    return {"line": line, "n": n, "records": records, "certs": certs}


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def cmd_sweep(args) -> int:
    t0 = time.monotonic()
    try:
        ns = _parse_range(args.range)
    except ValueError:
        print(f"error: bad range {args.range!r}", file=sys.stderr)
        return 2
    external: dict[int, list] | None = None
    if args.input:
        # alternative exhaustive source: a graph6 file, e.g. from another tool
        try:
            lines = _read_lines(args.input)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        external = {}
        for number, line in lines:
            try:
                g = parse_graph6(line)
            except Alpha2Error as exc:
                print(f"error: line {number}: {exc}", file=sys.stderr)
                return 2
            if alpha_at_most_two(g):
                external.setdefault(g.n, []).append(g)
    rows = []
    any_failures = False
    all_certs = []
    for n in ns:
        if external is not None:
            universe = external.get(n, [])
        else:
            try:
                universe = enumerate_alpha2(n, cap=args.cap)
            except Alpha2Error as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        tasks = [(emit_graph6(g), bool(args.emit)) for g in universe]
        results = _run_parallel(_sweep_worker, tasks, args.jobs)
        per_ell: dict[int, dict] = {}
        for res in results:
            for ell, check, status, reason in res["records"]:
                agg = per_ell.setdefault(
                    ell, {"checks": 0, "ok": 0, "failed": 0, "failures": []}
                )
                agg["checks"] += 1
                if status == "failed":
                    agg["failed"] += 1
                    agg["failures"].append(f"{res['line']}|{check}|{reason}")
                    any_failures = True
                else:
                    agg["ok"] += 1
            all_certs.extend(res["certs"])
        rows.append((n, 0, len(universe), 0, 0, 0, []))
        for ell in sorted(per_ell):
            agg = per_ell[ell]
            rows.append(
                (n, ell, len(universe), agg["checks"], agg["ok"], agg["failed"], agg["failures"])
            )
    if args.emit:
        try:
            _write_certs(args.emit, all_certs)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.format == "json":
        payload = [
            {
                "n": n,
                "ell": ell,
                "graphs": graphs,
                "checks": checks,
                "ok": ok,
                "failed": failed,
                "failures": failures,
            }
            for n, ell, graphs, checks, ok, failed, failures in rows
        ]
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("n,ell,graphs,checks,ok,failed,failures")
        for n, ell, graphs, checks, ok, failed, failures in rows:
            print(f"{n},{ell},{graphs},{checks},{ok},{failed},{';'.join(failures)}")
    print(f"sweep: {time.monotonic() - t0:.2f}s wall", file=sys.stderr)
    return 1 if any_failures else 0


# -- oracle-check --------------------------------------------------------------


def parse_target(text: str) -> MinorTarget:
    """Accepts 'K5' for complete targets and 'K2,3' for the 2-clique joined to
    3 independent vertices."""
    body = text[1:] if text.startswith("K") else text
    if "," in body:
        ell, m = body.split(",", 1)
        return CliqueJoinIndependent(int(ell), int(m))
    return CompleteGraph(int(body))


def _oracle_worker(task: tuple[int, str, str, bool, int]) -> dict:
    index, line, target_text, half, cap = task
    target = parse_target(target_text)
    try:
        g = parse_graph6(line)
    except Alpha2Error as exc:
        return {"index": index, "line": line, "status": "failed", "reason": str(exc)}
    try:
        oracle_model = find_minor_bruteforce(g, target, max_n=cap)
    except OracleCapExceeded as exc:
        return {"index": index, "line": line, "status": "skipped", "reason": str(exc)}
    oracle_note = "oracle=found" if oracle_model is not None else "oracle=absent"
    if not alpha_at_most_two(g):
        return {
            "index": index,
            "line": line,
            "status": "skipped",
            "reason": f"{oracle_note}; independence number exceeds 2",
        }
    if not isinstance(target, CliqueJoinIndependent):
        return {
            "index": index,
            "line": line,
            "status": "skipped",
            "reason": f"{oracle_note}; target not of constructive form",
        }
    bound = ceil_half(g.n) if half else chromatic_number_alpha2(g)
    expected_m = bound - target.ell
    if target.m != expected_m or 2 * target.ell > bound:
        return {
            "index": index,
            "line": line,
            "status": "skipped",
            "reason": f"{oracle_note}; target not of constructive form",
        }
    constructor = construct_half_minor if half else construct_chi_minor
    try:
        constructor(g, target.ell)
    except Alpha2Error as exc:
        return {
            "index": index,
            "line": line,
            "status": "failed",
            "reason": f"constructor failed: {exc}",
        }
    if oracle_model is None:
        return {
            "index": index,
            "line": line,
            "status": "failed",
            "reason": "constructor succeeded but oracle found no model",
        }
    return {"index": index, "line": line, "status": "ok", "reason": oracle_note}


def cmd_oracle_check(args) -> int:
    t0 = time.monotonic()
    try:
        parse_target(args.target)
    except (ValueError, Alpha2Error) as exc:
        print(f"error: bad target {args.target!r}: {exc}", file=sys.stderr)
        return 2
    try:
        lines = _read_lines(args.input)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tasks = [(number, line, args.target, args.half, args.cap) for number, line in lines]
    results = _run_parallel(_oracle_worker, tasks, args.jobs)
    failures = [r for r in results if r["status"] == "failed"]
    if args.format == "json":
        totals = {
            "processed": len(results),
            "succeeded": sum(r["status"] == "ok" for r in results),
            "failed": len(failures),
            "skipped": sum(r["status"] == "skipped" for r in results),
        }
        print(json.dumps({"totals": totals, "results": results}, sort_keys=True, indent=2))
    else:
        target_text = f'"{args.target}"' if "," in args.target else args.target
        print("line,graph6,target,status,reason")
        for r in results:
            print(f"{r['index']},{r['line']},{target_text},{r['status']},{r['reason']}")
    print(f"oracle-check: {time.monotonic() - t0:.2f}s wall", file=sys.stderr)
    return 1 if failures else 0


# -- gen -----------------------------------------------------------------------


def cmd_gen(args) -> int:
    try:
        if args.random is not None:
            for i in range(args.random):
                print(emit_graph6(random_alpha2(args.n, args.seed + i)))
        else:
            for g in enumerate_alpha2(args.n, cap=args.cap):
                print(emit_graph6(g))
    except Alpha2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


# -- entry ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alpha2minor",
        description=(
            "Construct and verify clique-join-independent minor models in "
            "graphs with independence number two."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        if with_input:
            p.add_argument("input", nargs="?", default=None, help="graph6 file (default stdin)")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_verify = sub.add_parser("verify", help="run the constructor over a graph6 stream")
    common(p_verify)
    p_verify.add_argument("--half", action="store_true", help="use the half-order form")
    p_verify.add_argument("--ell", default="all", help="a single ell or 'all'")
    p_verify.add_argument("--emit", default=None, help="directory for certificate JSON files")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="exhaustively check all alpha<=2 graphs for an n range")
    p_sweep.add_argument("range", help="vertex counts, e.g. 5..8 or 7")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--emit", default=None, help="directory for certificate JSON files")
    p_sweep.add_argument("--cap", type=int, default=EXHAUSTIVE_CAP_DEFAULT, help="enumeration cap")
    p_sweep.add_argument(
        "--input",
        default=None,
        help="graph6 file to use as the universe instead of the built-in enumeration",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle-check", help="compare constructor and brute-force oracle")
    common(p_oracle)
    p_oracle.add_argument("--target", required=True, help="K5 (complete) or K2,3 (clique join)")
    p_oracle.add_argument("--half", action="store_true")
    p_oracle.add_argument("--cap", type=int, default=14, help="oracle size guard")
    p_oracle.set_defaults(func=cmd_oracle_check)

    p_gen = sub.add_parser("gen", help="emit a test universe as graph6 lines")
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("--random", type=int, default=None, help="emit this many random graphs")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--cap", type=int, default=EXHAUSTIVE_CAP_DEFAULT)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
