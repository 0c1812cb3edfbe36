"""Batch front door: verify constructions over graph6 streams, sweep the
exhaustive universe, cross-check the constructor against the brute-force
oracle, and generate test universes.

Each subcommand maps its own per-graph worker over its inputs, in worker
processes with ``--jobs``: ``verify`` and ``oracle-check`` hand their workers
graph6 lines, parsed in one place, and ``sweep`` hands its workers the
``Graph``s of its universe, built in or read from ``--input``.

Reports are byte-deterministic for fixed inputs, flags and seeds: workers
return plain data, and results are reassembled in input order.  ``main``
writes the one wall-clock line, ``<command>: N.NNs wall``, to stderr after
any subcommand that did not fail with a usage error, ``gen`` included.  Exit
codes: 0 all succeeded, 1 at least one failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import partial
from multiprocessing import Pool
from pathlib import Path
from typing import NamedTuple

from .construct import (
    ceil_half,
    certificate_to_json,
    construct_chi_minor,
    construct_half_minor,
)
from .errors import Alpha2Error, OracleCapExceeded
from .generate import EXHAUSTIVE_CAP_DEFAULT, enumerate_alpha2, random_alpha2
from .graphs import Graph, emit_graph6, is_k_connected, parse_graph6
from .invariants import (
    alpha_at_most_two,
    chromatic_number_alpha2,
    clique_number,
    is_five_wheel,
)
from .minors import (
    CliqueJoinIndependent,
    CompleteGraph,
    ORACLE_DEFAULT_MAX_N,
    MinorTarget,
    find_minor_bruteforce,
)
from .packing import (
    check_packing_conditions,
    find_p3_packing,
    verify_packing_characterization,
)


class UsageError(Exception):
    """A bad argument, input or output path; ``main`` reports it and exits
    with code 2."""


def _read_lines(path: str | None) -> list[tuple[int, str]]:
    """Non-blank input lines with their 1-based line numbers."""
    try:
        text = sys.stdin.read() if path is None or path == "-" else Path(path).read_text()
    except OSError as exc:
        raise UsageError(exc) from None
    return [
        (number, line.strip())
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]


def _cert_filename(line: str, ell: int, form: str) -> str:
    digest = hashlib.sha256(line.encode()).hexdigest()[:16]
    return f"{digest}_ell{ell}_{form}.json"


def _write_certs(emit_dir: str, certs: list[tuple[str, str]]) -> None:
    """Write each (file name, JSON text) pair under ``emit_dir``."""
    out = Path(emit_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in certs:
            (out / name).write_text(text)
    except OSError as exc:
        raise UsageError(exc) from None


# -- the per-graph workers ----------------------------------------------------


class Row(NamedTuple):
    """One check's outcome; form "-" marks a row about the whole graph."""

    ell: int
    form: str
    status: str
    reason: str = ""


def _check_line(per_graph, item: tuple[int, str]) -> dict:
    """Parse one graph6 line and run ``per_graph(g, line)``, which returns
    the graph's rows and certificates.  Returns the line with both."""
    index, line = item
    try:
        g = parse_graph6(line)
    except Alpha2Error as exc:
        rows, certs = [Row(0, "-", "failed", f"malformed graph6: {exc}")], []
    else:
        rows, certs = per_graph(g, line)
    return {"index": index, "line": line, "rows": rows, "certs": certs}


def _construct_rows(
    forms: tuple[str, ...], ells: tuple[int, ...] | None, want_certs: bool, g: Graph, line: str
) -> tuple[list[Row], list]:
    """One row per (form, ell), every admissible ell when ``ells`` is None;
    a constructor's error becomes a failed row.  With ``want_certs``, also the
    (file name, JSON text) of each ok row's certificate."""
    # Also for the half form: its certificates record chi too.
    chi = chromatic_number_alpha2(g)
    rows = []
    certs = []
    for form in forms:
        bound = ceil_half(g.n) if form == "half" else chi
        constructor = construct_half_minor if form == "half" else construct_chi_minor
        for ell in ells or range(1, bound // 2 + 1):
            if 2 * ell > bound:
                rows.append(Row(ell, form, "skipped", f"2*ell exceeds {bound}"))
                continue
            try:
                cert = constructor(g, ell)
            except Alpha2Error as exc:
                rows.append(Row(ell, form, "failed", str(exc)))
                continue
            rows.append(Row(ell, form, "ok"))
            if want_certs:
                # Serialized here, once: the text is smaller than the dict.
                text = json.dumps(certificate_to_json(cert), sort_keys=True, indent=2)
                certs.append((_cert_filename(line, ell, form), text + "\n"))
    return rows, certs


def _verify_graph(
    form: str, ells: tuple[int, ...] | None, want_certs: bool, g: Graph, line: str
) -> tuple[list[Row], list]:
    """``verify``: the constructor rows of a graph that passes the alpha <= 2
    screen."""
    if not alpha_at_most_two(g):
        return [Row(0, "-", "skipped", "independence number exceeds 2")], []
    return _construct_rows((form,), ells, want_certs, g, line)


def _oracle_graph(
    target: MinorTarget, form: str, cap: int, g: Graph, line: str
) -> tuple[list[Row], list]:
    """``oracle-check``: one row, the brute-force oracle's verdict on
    ``target``, checked against the constructor when the target has the
    constructive form."""
    try:
        oracle_model = find_minor_bruteforce(g, target, max_n=cap)
    except OracleCapExceeded as exc:
        return [Row(0, "-", "skipped", str(exc))], []
    oracle_note = "oracle=found" if oracle_model is not None else "oracle=absent"
    if not alpha_at_most_two(g):
        return [Row(0, "-", "skipped", f"{oracle_note}; independence number exceeds 2")], []
    bound = ceil_half(g.n) if form == "half" else chromatic_number_alpha2(g)
    if (
        not isinstance(target, CliqueJoinIndependent)
        or target.m != bound - target.ell
        or 2 * target.ell > bound
    ):
        return [Row(0, "-", "skipped", f"{oracle_note}; target not of constructive form")], []
    (row,), _ = _construct_rows((form,), (target.ell,), False, g, line)
    if row.status == "failed":
        row = row._replace(reason=f"constructor failed: {row.reason}")
    elif oracle_model is None:
        row = row._replace(status="failed", reason="constructor succeeded but oracle found no model")
    else:
        row = row._replace(reason=oracle_note)
    return [row], []


def _sweep_graph(want_certs: bool, g: Graph) -> tuple[str, list[Row], list]:
    """``sweep``: both forms' rows at every ell, then the packing rows, of a
    graph of the universe, which has alpha <= 2 already.  Returns its graph6
    line, for failure texts and certificate names, with the rows and
    certificates."""
    line = emit_graph6(g)
    rows, certs = _construct_rows(("half", "chi"), None, want_certs, g, line)
    return line, rows + _packing_rows(g), certs


def _packing_rows(g: Graph) -> list[Row]:
    n = g.n
    rows = []
    for ell in range(1, (n + 2) // 3 + 1):
        if ell == 2 and is_five_wheel(g):
            # The one excluded case: all four conditions hold, yet no packing.
            report = check_packing_conditions(g, 2)
            exceptional = report.all_hold and find_p3_packing(g, 2) is None
            status = "exception" if exceptional else "failed"
            rows.append(Row(ell, "packing_iff", status, "five-wheel exclusion"))
            continue
        try:
            ok = verify_packing_characterization(g, ell)
            rows.append(Row(ell, "packing_iff", "ok" if ok else "failed", "" if ok else "iff mismatch"))
        except Alpha2Error as exc:
            rows.append(Row(ell, "packing_iff", "failed", str(exc)))
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
            rows.append(
                Row(ell, "packing_guarantee", "ok" if found else "failed", "" if found else "no packing")
            )
    return rows


def _check_lines(worker, items: list, jobs: int) -> list:
    """``worker`` over ``items``, in input order, on at most one worker
    process per item; ``worker`` and the items must pickle."""
    jobs = min(jobs, len(items))
    if jobs <= 1:
        return [worker(item) for item in items]
    chunk = max(1, len(items) // (4 * jobs))
    with Pool(processes=jobs) as pool:
        return pool.map(worker, items, chunksize=chunk)


def _graph_status(rows: list[Row]) -> str:
    """Failed if any row failed, ok if any row is ok: a graph on which every
    check was skipped, or none ran, did not succeed."""
    statuses = {row.status for row in rows}
    if "failed" in statuses:
        return "failed"
    return "ok" if "ok" in statuses else "skipped"


def _totals(results: list[dict]) -> dict:
    totals = {"processed": len(results), "succeeded": 0, "failed": 0, "skipped": 0}
    for res in results:
        status = _graph_status(res["rows"])
        totals["succeeded" if status == "ok" else status] += 1
    return totals


# -- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    per_graph = partial(_verify_graph, "half" if args.half else "chi", args.ell, bool(args.emit))
    results = _check_lines(partial(_check_line, per_graph), _read_lines(args.input), args.jobs)
    totals = _totals(results)
    if args.emit:
        _write_certs(args.emit, [cert for res in results for cert in res["certs"]])
    all_rows = [(res["index"], res["line"], row) for res in results for row in res["rows"]]
    if args.format == "json":
        payload = {
            "totals": totals,
            "results": [
                {"index": i, "graph6": line, **row._asdict()} for i, line, row in all_rows
            ],
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("line,graph6,ell,form,status,reason")
        for i, line, row in all_rows:
            print(f"{i},{line},{row.ell},{row.form},{row.status},{row.reason}")
        print(
            f"# processed={totals['processed']} succeeded={totals['succeeded']}"
            f" failed={totals['failed']} skipped={totals['skipped']}"
        )
    return 1 if totals["failed"] else 0


# -- sweep -------------------------------------------------------------------


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def cmd_sweep(args) -> int:
    try:
        ns = _parse_range(args.range)
    except ValueError:
        ns = []
    if not ns:
        raise UsageError(f"bad range {args.range!r}")
    external: dict[int, list] | None = None
    if args.input:
        # alternative exhaustive source: a graph6 file, e.g. from another tool
        external = {}
        for number, line in _read_lines(args.input):
            try:
                g = parse_graph6(line)
            except Alpha2Error as exc:
                raise UsageError(f"line {number}: {exc}") from None
            if alpha_at_most_two(g):
                external.setdefault(g.n, []).append(g)
        if not any(n in external for n in ns):
            raise UsageError(
                f"{args.input} has no graph of order {args.range}"
                " with independence number at most two"
            )
    worker = partial(_sweep_graph, bool(args.emit))
    # One record per (n, ell), as the JSON report prints it; ell 0 counts the
    # graphs of order n.
    records = []
    all_certs = []
    for n in ns:
        if external is not None:
            universe = external.get(n, [])
        else:
            try:
                universe = enumerate_alpha2(n, cap=args.cap)
            except Alpha2Error as exc:
                raise UsageError(exc) from None
        blank = {"n": n, "graphs": len(universe), "checks": 0, "ok": 0, "failed": 0}
        per_ell = {0: {**blank, "ell": 0, "failures": []}}
        for line, rows, certs in _check_lines(worker, universe, args.jobs):
            for row in rows:
                rec = per_ell.setdefault(row.ell, {**blank, "ell": row.ell, "failures": []})
                rec["checks"] += 1
                if row.status == "failed":
                    rec["failed"] += 1
                    rec["failures"].append(f"{line}|{row.form}|{row.reason}")
                else:
                    rec["ok"] += 1
            all_certs.extend(certs)
        records += [per_ell[ell] for ell in sorted(per_ell)]
    if args.emit:
        _write_certs(args.emit, all_certs)
    if args.format == "json":
        print(json.dumps(records, sort_keys=True, indent=2))
    else:
        print("n,ell,graphs,checks,ok,failed,failures")
        for r in records:
            print(
                f"{r['n']},{r['ell']},{r['graphs']},{r['checks']},{r['ok']},{r['failed']},"
                + ";".join(r["failures"])
            )
    return 1 if any(r["failed"] for r in records) else 0


# -- oracle-check --------------------------------------------------------------


def parse_target(text: str) -> MinorTarget:
    """Accepts 'K5' for complete targets and 'K2,3' for the 2-clique joined to
    3 independent vertices."""
    body = text[1:] if text.startswith("K") else text
    if "," in body:
        ell, m = body.split(",", 1)
        return CliqueJoinIndependent(int(ell), int(m))
    return CompleteGraph(int(body))


def cmd_oracle_check(args) -> int:
    try:
        target = parse_target(args.target)
    except (ValueError, Alpha2Error) as exc:
        raise UsageError(f"bad target {args.target!r}: {exc}") from None
    per_graph = partial(_oracle_graph, target, "half" if args.half else "chi", args.cap)
    results = _check_lines(partial(_check_line, per_graph), _read_lines(args.input), args.jobs)
    totals = _totals(results)
    # One row per graph.
    records = [
        {"index": res["index"], "line": res["line"], "status": row.status, "reason": row.reason}
        for res in results
        for row in res["rows"]
    ]
    if args.format == "json":
        print(json.dumps({"totals": totals, "results": records}, sort_keys=True, indent=2))
    else:
        target_text = f'"{args.target}"' if "," in args.target else args.target
        print("line,graph6,target,status,reason")
        for r in records:
            print(f"{r['index']},{r['line']},{target_text},{r['status']},{r['reason']}")
    return 1 if totals["failed"] else 0


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
        raise UsageError(exc) from None
    return 0


# -- entry ---------------------------------------------------------------------


def _ell_arg(text: str) -> tuple[int, ...] | None:
    """``--ell``: None for 'all', else the one ell, which must be >= 1."""
    if text == "all":
        return None
    try:
        ell = int(text)
    except ValueError:
        ell = 0
    if ell < 1:
        raise argparse.ArgumentTypeError(f"expected 'all' or an integer >= 1, got {text!r}")
    return (ell,)


def _int_at_least(low: int):
    """An argparse type for an integer >= ``low``: ``--random`` (how many
    graphs to emit, from 0) and ``--jobs`` (worker processes, from 1)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


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
        p.add_argument("--jobs", type=_int_at_least(1), default=1, help="parallel workers")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_verify = sub.add_parser("verify", help="run the constructor over a graph6 stream")
    common(p_verify)
    p_verify.add_argument("--half", action="store_true", help="use the half-order form")
    p_verify.add_argument("--ell", type=_ell_arg, default="all", help="a single ell >= 1 or 'all'")
    p_verify.add_argument("--emit", default=None, help="directory for certificate JSON files")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="exhaustively check all alpha<=2 graphs for an n range")
    p_sweep.add_argument("range", help="vertex counts, e.g. 5..8 or 7")
    common(p_sweep, with_input=False)
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
    p_oracle.add_argument("--cap", type=int, default=ORACLE_DEFAULT_MAX_N, help="oracle size guard")
    p_oracle.set_defaults(func=cmd_oracle_check)

    p_gen = sub.add_parser("gen", help="emit a test universe as graph6 lines")
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("--random", type=_int_at_least(0), default=None, help="emit this many random graphs")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--cap", type=int, default=EXHAUSTIVE_CAP_DEFAULT)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        code = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.command}: {time.monotonic() - t0:.2f}s wall", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
