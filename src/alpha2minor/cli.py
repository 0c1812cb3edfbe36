"""Batch front door: verify constructions over graph6 streams, sweep the
exhaustive universe, and generate test universes.

``verify`` and ``sweep`` each map their own per-graph worker once over their
inputs, in one pool of worker processes with ``--jobs``; every worker returns
the graph's rows and certificates.  ``verify`` hands its worker graph6 lines,
which the worker parses.  ``sweep`` hands its worker the ``Graph``s of its
universe: the built-in enumeration of every order of the range, streamed as
it is generated, or the graphs read from ``--input``.

Reports are byte-deterministic for fixed inputs, flags and seeds: workers
return plain data, and results are reassembled in input order.  With
``--emit``, ``verify`` and ``sweep`` start one writer process, which creates
the certificate files while rows are still being computed; each graph's
certificates go to it as soon as its worker returns them.  The writer names
each file from the sha256 of its graph6 line, and is the only process that
imports ``hashlib``, so no other process loads OpenSSL.  The writer is
joined before the report is printed, and a failed ``mkdir`` or write ends the
subcommand with a usage error and no report.  ``main`` writes the one
wall-clock line, ``<command>: N.NNs wall``, to stderr after any subcommand
that did not fail with a usage error, ``gen`` included.  Exit codes: 0 all
succeeded, 1 at least one failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import partial
from itertools import chain, islice
from multiprocessing import Pipe, Pool, Process
from pathlib import Path
from typing import NamedTuple

from .construct import (
    cached_graph6,
    ceil_half,
    certificate_to_json,
    construct_chi_minor,
    construct_half_minor,
)
from .errors import Alpha2Error
from .generate import EXHAUSTIVE_CAP_DEFAULT, enumerate_alpha2, random_alpha2
from .graphs import Graph, emit_graph6, parse_graph6
from .invariants import alpha_at_most_two, chromatic_number_alpha2, clique_number
from .packing import check_packing_conditions, find_p3_packing, validate_packing


class UsageError(Exception):
    """A bad argument, input or output path; ``main`` reports it and exits
    with code 2."""


def _read_lines(path: str | None) -> list[tuple[int, str]]:
    """Non-blank input lines, split at line feeds only and stripped, with
    their 1-based line numbers.  Stdin and files alike are decoded from their
    bytes as strict UTF-8, whatever the locale."""
    stdin = path is None or path == "-"
    try:
        text = (sys.stdin.buffer.read() if stdin else Path(path).read_bytes()).decode()
    except OSError as exc:
        raise UsageError(exc) from None
    except UnicodeDecodeError as exc:
        # Unlike an OSError's text, a decoding error's names no file.
        raise UsageError(f"{'<stdin>' if stdin else path}: {exc}") from None
    return [
        (number, line.strip())
        for number, line in enumerate(text.split("\n"), start=1)
        if line.strip()
    ]


def _write_certs(conn, parent_end, out: Path) -> None:
    """The writer process: for each ((graph6 line, ell, form), JSON text)
    pair received on ``conn``, create ``<hash>_ell<ell>_<form>.json`` under
    ``out``, where the hash is the first 16 hex digits of the line's sha256,
    until ``None`` arrives; then send back the text of the first failed
    write, or ``None``.  After a failure it writes nothing more and only
    drains the stream."""
    # Imported here: only this process names files, and OpenSSL behind
    # hashlib costs every other process memory.
    from hashlib import sha256

    # Closing the copy of the parent's end lets the parent's death end the
    # stream with EOFError.
    parent_end.close()
    error = None
    try:
        while (certs := conn.recv()) is not None:
            if error is None:
                try:
                    for (line, ell, form), text in certs:
                        digest = sha256(line.encode()).hexdigest()[:16]
                        (out / f"{digest}_ell{ell}_{form}.json").write_text(text)
                except OSError as exc:
                    error = str(exc)
    except EOFError:  # the parent died; nobody waits for the answer
        return
    conn.send(error)


@contextmanager
def _cert_writer(emit_dir: str | None):
    """Yield a function that takes one graph's ((graph6 line, ell, form),
    JSON text) pairs.

    With ``emit_dir``, the directory is made first, then one writer process,
    started like the ``--jobs`` pool's workers, creates the files while the
    caller goes on computing.  The writer is joined on leaving the block, also
    when an exception leaves it.  A failed ``mkdir`` raises ``UsageError``
    with the ``OSError``'s text at once, a failed write once the writer is
    joined.  Without ``emit_dir`` the function does nothing."""
    if not emit_dir:
        yield lambda certs: None
        return
    out = Path(emit_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(exc) from None
    conn, writer_end = Pipe()
    writer = Process(target=_write_certs, args=(writer_end, conn, out))
    writer.start()
    writer_end.close()

    def write(certs: list[tuple[tuple[str, int, str], str]]) -> None:
        if certs:
            conn.send(certs)

    try:
        yield write
    finally:
        # End the stream on every path, so that the writer exits.
        try:
            conn.send(None)
            error = conn.recv()
        finally:
            conn.close()
            writer.join()
    if error is not None:
        raise UsageError(error)


# -- the per-graph workers ----------------------------------------------------


class Row(NamedTuple):
    """One check's outcome; form "-" marks a row about the whole graph."""

    ell: int
    form: str
    status: str
    reason: str = ""


def _construct_rows(
    forms: tuple[str, ...], ells: tuple[int, ...] | None, want_certs: bool, g: Graph, line: str
) -> tuple[list[Row], list]:
    """One row per (form, ell), every admissible ell when ``ells`` is None;
    a constructor's error becomes a failed row.  With ``want_certs``, also
    ((line, ell, form), JSON text) for each ok row's certificate; the writer
    names its file."""
    rows = []
    certs = []
    for form in forms:
        if form == "half":
            bound, constructor = ceil_half(g.n), construct_half_minor
        else:
            bound, constructor = chromatic_number_alpha2(g), construct_chi_minor
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
                text = json.dumps(certificate_to_json(cert), sort_keys=True, indent=2)
                certs.append(((line, ell, form), text + "\n"))
    return rows, certs


def _verify_graph(
    form: str, ells: tuple[int, ...] | None, want_certs: bool, line: str
) -> tuple[list[Row], list]:
    """``verify``: the constructor rows of the graph on one graph6 line, if
    it parses and passes the alpha <= 2 screen."""
    try:
        g = parse_graph6(line)
    except Alpha2Error as exc:
        return [Row(0, "-", "failed", f"malformed graph6: {exc}")], []
    if not alpha_at_most_two(g):
        return [Row(0, "-", "skipped", "independence number exceeds 2")], []
    return _construct_rows((form,), ells, want_certs, g, line)


def _sweep_graph(want_certs: bool, g: Graph) -> tuple[int, str, list[Row], list]:
    """``sweep``: the order and graph6 line of a graph of the universe, which
    has alpha <= 2 already; both forms' rows at every ell, then the packing
    rows; and the certificates."""
    # Cached, so that the trace steps taken in g itself reuse the text.
    line = cached_graph6(g)
    rows, certs = _construct_rows(("half", "chi"), None, want_certs, g, line)
    return g.n, line, rows + _packing_rows(g), certs


def _packing_rows(g: Graph) -> list[Row]:
    """Per ell, the exhaustive packing search against the four conditions, and
    where its hypotheses hold, the packing guarantee; the conditions are asked
    once per graph, each packing once per ell."""
    n = g.n
    report = check_packing_conditions(g)
    packings = {ell: find_p3_packing(g, ell) for ell in range(1, (n + 2) // 3 + 1)}
    rows = []
    for ell, packing in packings.items():
        if ell == 2 and report.five_wheel_exception:
            # The one excluded case: all four conditions hold, yet no packing.
            exceptional = report.holds(ell) and packing is None
            status = "exception" if exceptional else "failed"
            rows.append(Row(ell, "packing_iff", status, "five-wheel exclusion"))
            continue
        valid = packing is not None and not validate_packing(g, packing)
        ok = valid if report.holds(ell) else packing is None
        rows.append(Row(ell, "packing_iff", "ok" if ok else "failed", "" if ok else "iff mismatch"))
    # The hypotheses do not depend on ell, and every ell <= (n - 1) // 4 also
    # meets ell <= (n + 3) // 4; n >= 5 is where the ell range is nonempty.
    # For odd n >= 5, (n + 2) // 4 is at most n // 3, the cap on
    # ``report.connectivity``, and (n - 1) // 4 is at most (n + 2) // 3.
    if (
        n % 2 == 1
        and n >= 5
        and report.connectivity >= (n + 2) // 4
        and clique_number(g) < ceil_half(n)
    ):
        for ell in range(1, (n - 1) // 4 + 1):
            found = packings[ell] is not None
            rows.append(
                Row(ell, "packing_guarantee", "ok" if found else "failed", "" if found else "no packing")
            )
    return rows


# Items per task from a long input; the task pipe holds few.
_CHUNK = 64


def _check_lines(worker, items, jobs: int):
    """``worker`` over ``items``, yielded in input order as the results come
    in; ``worker`` and the items must pickle.  With more than one job, a head
    of up to 4 * jobs * _CHUNK items is read first: it runs on at most one
    worker process per item, in tasks of a quarter of each worker's share of
    the head, so a long input goes out _CHUNK items per task."""
    if jobs > 1:
        items = iter(items)
        head = list(islice(items, 4 * jobs * _CHUNK))
        jobs = min(jobs, len(head))
        items = chain(head, items)
    if jobs <= 1:
        yield from map(worker, items)
        return
    with Pool(processes=jobs) as pool:
        yield from pool.imap(worker, items, chunksize=max(1, len(head) // (4 * jobs)))


def _graph_status(rows: list[Row]) -> str:
    """Failed if any row failed, ok if any row is ok: a graph on which every
    check was skipped, or none ran, did not succeed."""
    statuses = {row.status for row in rows}
    if "failed" in statuses:
        return "failed"
    return "ok" if "ok" in statuses else "skipped"


def _totals(rows_per_graph: list[list[Row]]) -> dict:
    totals = {"processed": len(rows_per_graph), "succeeded": 0, "failed": 0, "skipped": 0}
    for rows in rows_per_graph:
        status = _graph_status(rows)
        totals["succeeded" if status == "ok" else status] += 1
    return totals


# -- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    per_graph = partial(_verify_graph, "half" if args.half else "chi", args.ell, bool(args.emit))
    items = _read_lines(args.input)
    rows_per_graph = []
    with _cert_writer(args.emit) as write:
        for rows, certs in _check_lines(per_graph, [line for _, line in items], args.jobs):
            write(certs)
            rows_per_graph.append(rows)
    totals = _totals(rows_per_graph)
    pairs = zip(items, rows_per_graph, strict=True)
    all_rows = [(i, line, row) for (i, line), rows in pairs for row in rows]
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
    if min(ns) < 0:
        raise UsageError("vertex count must be nonnegative")
    # A usage error comes before the writer starts, so that it leaves no
    # certificate written.
    if args.input:
        # alternative exhaustive source: a graph6 file, e.g. from another tool
        universe = []
        for number, line in _read_lines(args.input):
            try:
                g = parse_graph6(line)
            except Alpha2Error as exc:
                raise UsageError(f"line {number}: {exc}") from None
            if g.n in ns and alpha_at_most_two(g):
                universe.append(g)
        if not universe:
            raise UsageError(
                f"{args.input} has no graph of order {args.range}"
                " with independence number at most two"
            )
    else:
        try:
            universe = enumerate_alpha2(*ns, cap=args.cap)
        except Alpha2Error as exc:
            raise UsageError(exc) from None
    graphs = Counter()
    # One record per (n, ell), as the JSON report prints it; ell 0 counts the
    # graphs of order n.
    records = defaultdict(lambda: {"checks": 0, "ok": 0, "failed": 0, "failures": []})
    for n in ns:
        records[n, 0]  # a row for every order asked, with or without graphs
    worker = partial(_sweep_graph, bool(args.emit))
    with _cert_writer(args.emit) as write:
        for n, line, rows, certs in _check_lines(worker, universe, args.jobs):
            graphs[n] += 1
            for row in rows:
                rec = records[n, row.ell]
                rec["checks"] += 1
                if row.status == "failed":
                    rec["failed"] += 1
                    rec["failures"].append(f"{line}|{row.form}|{row.reason}")
                else:
                    rec["ok"] += 1
            write(certs)
    records = [{"n": n, "ell": ell, **rec, "graphs": graphs[n]} for (n, ell), rec in sorted(records.items())]
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

    p_gen = sub.add_parser("gen", help="emit a test universe as graph6 lines")
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("--random", type=_int_at_least(0), default=None, help="emit this many random graphs")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--cap", type=int, default=EXHAUSTIVE_CAP_DEFAULT)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Input is UTF-8 whatever the locale, and the reports echo malformed
    # lines: escape what the locale's encoding lacks instead of failing.
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(errors="backslashreplace")
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
