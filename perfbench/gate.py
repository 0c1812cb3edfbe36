"""Output-correctness gate, run on a workload's outputs after the timed calls.

The reports are parsed back into rows.  Every emitted certificate is
re-validated with ``validate_model`` against the graph parsed from its
``input_graph6``, which must be one of the input lines, and its target must be
the ell-clique joined to bound - ell independent sets, where bound is
ceil(n/2) for the half form and chi for the chi form.  Failed rows are counted
by cause: the brute-force oracle's size guard, which the seed commit is known
to trip at n = 15, or anything else, which the gate reports as a problem.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

# Isomorphism classes of graphs on n vertices with independence number at most
# two, i.e. of triangle-free graphs (OEIS A006785), for the sweep's range.
ALPHA2_CLASSES = {1: 1, 2: 2, 3: 3, 4: 7, 5: 14, 6: 38, 7: 107, 8: 410, 9: 1897}
ORACLE_GUARD = "minor oracle guard"


def cause_of(reason: str) -> str:
    return "oracle_guard" if reason.startswith(ORACLE_GUARD) else "other"


def tree_digest(directory: Path) -> str:
    """Digest of every file name and its bytes under ``directory``."""
    h = hashlib.sha256()
    if directory.is_dir():
        for path in sorted(directory.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_sweep(report: str) -> dict:
    problems = []
    lines = report.splitlines()
    if not lines or lines[0] != "n,ell,graphs,checks,ok,failed,failures":
        return {"attempted": 0, "ok": 0, "failed": {}, "problems": ["sweep report header missing"]}
    graphs: dict[int, int] = {}
    attempted = ok = failed = 0
    for row in lines[1:]:
        n, _ell, count, checks, row_ok, row_failed, _failures = row.split(",", 6)
        graphs[int(n)] = int(count)
        attempted += int(checks)
        ok += int(row_ok)
        failed += int(row_failed)
    if graphs != ALPHA2_CLASSES:
        problems.append(f"class counts {graphs} differ from {ALPHA2_CLASSES}")
    if failed:
        problems.append(f"{failed} failed sweep checks")
    if ok + failed != attempted:
        problems.append(f"ok {ok} + failed {failed} != checks {attempted}")
    return {"attempted": attempted, "ok": ok, "failed": {"check": failed} if failed else {}, "problems": problems}


def check_verify(report: str, lines: list[str], certs: Path, half: bool, a2) -> dict:
    """Rows of a ``verify`` CSV report against the input lines, and every
    certificate in ``certs`` against the ok rows.  ``a2`` is the package."""
    problems: list[str] = []
    form = "half" if half else "chi"
    rows = report.splitlines()
    if len(rows) < 2 or rows[0] != "line,graph6,ell,form,status,reason" or not rows[-1].startswith("# processed="):
        return {"attempted": 0, "ok": 0, "failed": {}, "problems": ["verify report header or footer missing"]}
    ells: dict[int, set[int]] = {i: set() for i in range(1, len(lines) + 1)}
    ok_keys: set[tuple[str, int]] = set()
    failed: Counter = Counter()
    attempted = ok = 0
    for row in rows[1:-1]:
        number, g6, ell, row_form, status, reason = row.split(",", 5)
        number, ell = int(number), int(ell)
        if ells.get(number) is None or lines[number - 1] != g6 or row_form != form:
            problems.append(f"row does not match its input: {row[:120]}")
            continue
        ells[number].add(ell)
        attempted += 1
        if status == "ok":
            ok += 1
            ok_keys.add((g6, ell))
        elif status == "failed":
            failed[cause_of(reason)] += 1
            if cause_of(reason) == "other" and len(problems) < 5:
                problems.append(f"row failed: {row[:300]}")
        else:
            problems.append(f"unexpected status: {row[:120]}")
    for number, line in enumerate(lines, start=1):
        g = a2.parse_graph6(line)
        bound = (g.n + 1) // 2 if half else a2.chromatic_number_alpha2(g)
        if ells[number] != set(range(1, bound // 2 + 1)):
            problems.append(f"line {number}: rows for ell {sorted(ells[number])}, bound {bound}")

    line_set = set(lines)
    cert_keys: set[tuple[str, int]] = set()
    for path in sorted(certs.glob("*.json")) if certs.is_dir() else ():
        try:
            data = json.loads(path.read_text())
            g6, ell = data["input_graph6"], data["ell"]
            g = a2.parse_graph6(g6)
            bound = (g.n + 1) // 2 if half else a2.chromatic_number_alpha2(g)
            model = a2.MinorModel(
                tuple(frozenset(s) for s in data["model"]["clique_side"]),
                tuple(frozenset(s) for s in data["model"]["independent_side"]),
            )
            violations = a2.validate_model(g, a2.CliqueJoinIndependent(ell, bound - ell), model)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{path.name}: malformed certificate ({exc!r})")
            continue
        if g6 not in line_set:
            problems.append(f"{path.name}: input_graph6 is not an input line")
        if data["target"] != {"ell": ell, "m": bound - ell}:
            problems.append(f"{path.name}: target {data['target']} for bound {bound}")
        if violations or data.get("validated") is not True:
            problems.append(f"{path.name}: invalid model {violations[:3]}")
        cert_keys.add((g6, ell))
    if cert_keys != ok_keys:
        problems.append(
            f"{len(ok_keys - cert_keys)} ok rows without a certificate,"
            f" {len(cert_keys - ok_keys)} certificates without an ok row"
        )
    return {"attempted": attempted, "ok": ok, "failed": dict(sorted(failed.items())), "problems": problems}
