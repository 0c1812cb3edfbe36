import hashlib
import json
import re
from collections import Counter

import pytest

from alpha2minor import cli, emit_graph6, enumerate_alpha2, named, random_alpha2
from alpha2minor.cli import main, parse_target
from alpha2minor.construct import TRACE_KINDS
from alpha2minor.minors import CliqueJoinIndependent, CompleteGraph
from conftest import co_circulant

C5 = emit_graph6(named("cycle", 5))
C6 = emit_graph6(named("cycle", 6))
PC = emit_graph6(named("petersen_complement"))


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestVerify:
    def test_single_cycle(self, capsys, monkeypatch, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text(C5 + "\n")
        code, out, _ = run(capsys, ["verify", str(src)])
        assert code == 0
        assert "# processed=1 succeeded=1 failed=0 skipped=0" in out
        assert f"1,{C5},1,chi,ok," in out

    def test_high_independence_skipped(self, capsys, monkeypatch, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text(C6 + "\n")
        code, out, _ = run(capsys, ["verify", str(src)])
        assert code == 0
        assert "skipped=1" in out

    def test_empty_input(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["verify"], stdin="", monkeypatch=monkeypatch)
        assert code == 0
        assert "# processed=0" in out

    def test_malformed_line_reports_and_continues(self, capsys, monkeypatch, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text("ThisIsNotGraph6!!!\n" + C5 + "\n")
        code, out, _ = run(capsys, ["verify", str(src)])
        assert code == 1
        assert "malformed graph6" in out
        assert f"2,{C5},1,chi,ok," in out

    def test_emit_writes_certificates(self, capsys, monkeypatch, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text(C5 + "\n")
        out_dir = tmp_path / "certs"
        code, _, _ = run(capsys, ["verify", str(src), "--emit", str(out_dir)])
        assert code == 0
        files = sorted(out_dir.iterdir())
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["validated"] is True
        assert payload["input_graph6"] == C5

    def test_half_form_and_single_ell(self, capsys, monkeypatch, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text(PC + "\n")
        code, out, _ = run(capsys, ["verify", str(src), "--half", "--ell", "2"])
        assert code == 0
        assert f"1,{PC},2,half,ok," in out

    def test_only_skipped_rows_is_not_success(self, capsys, monkeypatch):
        # chi(C5) = 3, so ell = 5 is out of range and nothing is checked.
        argv = ["verify", "--ell", "5"]
        code, out, _ = run(capsys, argv, stdin=C5 + "\n", monkeypatch=monkeypatch)
        assert code == 0
        assert f"1,{C5},5,chi,skipped,2*ell exceeds 3" in out
        assert "# processed=1 succeeded=0 failed=0 skipped=1" in out

    def test_empty_graph_is_not_success(self, capsys, monkeypatch):
        # The graph on no vertices has no admissible ell, so it gets no rows.
        code, out, _ = run(capsys, ["verify"], stdin="@\n", monkeypatch=monkeypatch)
        assert code == 0
        assert out.splitlines()[1:] == ["# processed=1 succeeded=0 failed=0 skipped=1"]

    def test_json_format(self, capsys, monkeypatch, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text(C5 + "\n")
        code, out, _ = run(capsys, ["verify", str(src), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["totals"]["succeeded"] == 1

    def test_missing_file(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["verify", "/nonexistent/path.g6"])
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("ell", ["foo", "0", "-1"])
    def test_bad_ell_is_usage_error(self, capsys, ell):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--ell", ell])
        assert exc.value.code == 2
        assert "--ell" in capsys.readouterr().err

    @pytest.mark.parametrize("n", range(17, 33, 2))
    def test_random_odd_orders_have_no_failed_rows(self, capsys, tmp_path, n):
        src = tmp_path / "in.g6"
        _, out, _ = run(capsys, ["gen", str(n), "--random", "3", "--seed", "0"])
        src.write_text(out)
        for half in ([], ["--half"]):
            code, out, _ = run(capsys, ["verify", str(src), *half])
            assert code == 0
            assert "# processed=3 succeeded=3 failed=0 skipped=0" in out


class TestSweep:
    def test_small_sweep_clean(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["sweep", "5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,ell,graphs,checks,ok,failed,failures"
        assert "5,0,14,0,0,0," in lines
        assert any(line.startswith("5,1,14,") for line in lines)
        assert all(line.split(",")[5] == "0" for line in lines[1:])

    def test_single_vertex(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["sweep", "1"])
        assert code == 0
        assert "1,0,1,0,0,0," in out

    def test_five_wheel_exception_recorded(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["sweep", "6", "--format", "json"])
        assert code == 0
        # the exceptional graph is counted as checked but never as failed
        rows = json.loads(out)
        row = next(r for r in rows if r["n"] == 6 and r["ell"] == 2)
        assert row["failed"] == 0

    def test_cap_respected(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["sweep", "11"])
        assert code == 2
        assert "capped" in err

    def test_external_universe_file(self, capsys, monkeypatch, tmp_path):
        # a graph6 file can replace the built-in enumeration; graphs with
        # independence number above two are dropped from the universe
        src = tmp_path / "universe.g6"
        src.write_text(C5 + "\n" + C6 + "\n")
        code, out, _ = run(capsys, ["sweep", "5..6", "--input", str(src)])
        assert code == 0
        lines = out.strip().splitlines()
        assert "5,0,1,0,0,0," in lines  # one 5-vertex graph accepted
        assert "6,0,0,0,0,0," in lines  # the 6-cycle was rejected

    def test_universe_reaches_workers_without_graph6(self, capsys, monkeypatch):
        # The sweep hands each worker a Graph; no graph6 line is parsed back.
        code, expected, _ = run(capsys, ["sweep", "1..6"])
        assert code == 0

        def no_parse(text):
            raise AssertionError(f"the sweep parsed {text!r}")

        monkeypatch.setattr(cli, "parse_graph6", no_parse)
        code, out, _ = run(capsys, ["sweep", "1..6"])
        assert code == 0
        assert out == expected

    def test_external_universe_parallel_matches_serial(self, capsys, tmp_path):
        # Graphs parsed from --input cross the worker pool.
        src = tmp_path / "universe.g6"
        _, five, _ = run(capsys, ["gen", "5"])
        _, six, _ = run(capsys, ["gen", "6"])
        src.write_text(five + six + C6 + "\n")
        reports = []
        for jobs in ("1", "2"):
            code, out, _ = run(capsys, ["sweep", "5..6", "--input", str(src), "--jobs", jobs])
            assert code == 0
            reports.append(out)
        assert reports[0] == reports[1]
        assert "6,0,38,0,0,0," in reports[0]  # the 6-cycle was dropped

    def test_bad_range(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["sweep", "x..y"])
        assert code == 2

    def test_empty_range_is_usage_error(self, capsys):
        # A range that checks nothing must not report success.
        code, out, err = run(capsys, ["sweep", "5..3"])
        assert code == 2
        assert out == ""
        assert "bad range '5..3'" in err

    def test_input_without_requested_orders_is_usage_error(self, capsys, tmp_path):
        # A universe file with no graph of the requested orders checks nothing.
        src = tmp_path / "c5.g6"
        src.write_text(C5 + "\n" + C6 + "\n")
        code, out, err = run(capsys, ["sweep", "6..8", "--input", str(src)])
        assert code == 2
        assert out == ""
        assert "has no graph of order 6..8" in err


class TestOracleCheck:
    def test_matching_target(self, capsys, monkeypatch, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text(C5 + "\n")
        code, out, _ = run(capsys, ["oracle-check", str(src), "--target", "K1,2"])
        assert code == 0
        assert 'ok,oracle=found' in out

    def test_non_constructive_target_skipped(self, capsys, monkeypatch, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text(C5 + "\n")
        code, out, _ = run(capsys, ["oracle-check", str(src), "--target", "K4"])
        assert code == 0
        assert "skipped,oracle=absent" in out

    def test_petersen_complement(self, capsys, monkeypatch, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text(PC + "\n")
        code, out, _ = run(capsys, ["oracle-check", str(src), "--target", "K2,3"])
        assert code == 0
        assert "ok,oracle=found" in out

    def test_target_parsing(self):
        assert parse_target("K5") == CompleteGraph(5)
        assert parse_target("K2,3") == CliqueJoinIndependent(2, 3)
        assert parse_target("2,3") == CliqueJoinIndependent(2, 3)

    def test_malformed_line_reason_matches_verify(self, capsys, monkeypatch, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text("D!c\n" + C5 + "\n")
        code, out, _ = run(capsys, ["oracle-check", str(src), "--target", "K1,2"])
        assert code == 1
        assert "1,D!c,\"K1,2\",failed,malformed graph6: byte '!' out of graph6 range" in out
        assert f'2,{C5},"K1,2",ok,oracle=found' in out
        _, verify_out, _ = run(capsys, ["verify", str(src)])
        assert "1,D!c,0,-,failed,malformed graph6: byte '!' out of graph6 range" in verify_out

    def test_bad_target(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["oracle-check", "--target", "Kx"], stdin="",
                           monkeypatch=monkeypatch)
        assert code == 2


class TestGen:
    def test_exhaustive(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["gen", "4"])
        assert code == 0
        assert len(out.strip().splitlines()) == 7

    def test_random_deterministic(self, capsys, monkeypatch):
        code1, out1, _ = run(capsys, ["gen", "9", "--random", "5", "--seed", "3"])
        code2, out2, _ = run(capsys, ["gen", "9", "--random", "5", "--seed", "3"])
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.strip().splitlines()) == 5

    def test_cap(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["gen", "12"])
        assert code == 2

    def test_negative_random_count_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "5", "--random", "-2"])
        assert exc.value.code == 2
        assert "--random" in capsys.readouterr().err


class TestUsage:
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("jobs", ["0", "-1", "x"])
    def test_bad_jobs_is_usage_error(self, capsys, monkeypatch, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(cli, "Pool", no_pool)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "5", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["verify"], ["sweep", "5"], ["oracle-check", "--target", "K1,2"], ["gen", "5"]],
        ids=lambda argv: argv[0],
    )
    def test_one_wall_time_line(self, capsys, monkeypatch, argv):
        code, _, err = run(capsys, argv, stdin=C5 + "\n", monkeypatch=monkeypatch)
        assert code == 0
        assert re.fullmatch(rf"{argv[0]}: \d+\.\d\ds wall\n", err)

    def test_jobs_capped_at_item_count(self, capsys, monkeypatch, tmp_path):
        started = []

        class InlinePool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return [fn(item) for item in items]

        monkeypatch.setattr(cli, "Pool", InlinePool)
        src = tmp_path / "in.g6"
        src.write_text(f"{C5}\n{PC}\n")
        code, out, _ = run(capsys, ["verify", str(src), "--jobs", "8"])
        assert code == 0
        assert started == [2]
        assert "# processed=2 succeeded=2" in out

    def test_jobs_parallel_matches_serial(self, capsys, monkeypatch):
        code1, out1, _ = run(capsys, ["sweep", "5", "--jobs", "2"])
        code2, out2, _ = run(capsys, ["sweep", "5"])
        assert code1 == code2 == 0
        assert out1 == out2


def _digest(report: str, emit_dir) -> str:
    """sha256 over a report and every certificate file name and its bytes."""
    h = hashlib.sha256(report.encode())
    for path in sorted(emit_dir.iterdir()) if emit_dir.is_dir() else ():
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


JOIN_FACTORS = (
    (("cycle", 5), ("cycle", 5)),
    (("cycle", 5), ("complete", 4)),
    (("petersen_complement",), ("complete", 2)),
    (("five_wheel",), ("cycle", 5)),
    (("complete", 3), ("five_wheel",)),
    (("clique_join_independent", 2, 2), ("cycle", 5)),
)

# Joins of two random factors of odd order: chi < ceil(n/2), so the chi form
# deletes noncritical vertices, and two of the 9 + 9 joins reach ParityGlue.
RANDOM_JOIN_FACTORS = tuple(
    (a, b, seed)
    for a in (5, 7, 9, 11)
    for b in (5, 7, 9, 11)
    if a <= b
    for seed in range(3)
)

GOLDEN = {
    "sweep_1_7": "6e973d5d1f47a58334b6200e4e461750b4890019a363bf136034b341993cb173",
    "verify_half_random_11": "afac72b55d89486afb3fe90236e9d137f1d00e46e4ee60ae0c38ae5cea5ae2f3",
    "verify_chi_joins": "2d10d9f16c7fbd3b22badc22bfdd4b93e800fe1e345fe4d2ca4b906108ccc5c6",
    "verify_chi_random_joins": "158f4c7a61168f46e37dcdbcc9a130e2998201a3d7f10930e3fc780c6dc5eaf8",
    "enumerate_8": "e51cef1b696a6aff1619ac94877380c4dca5331fab7f64132b57dbad37aae26b",
    "enumerate_9": "c32fcc1e73f19129ea4b2bd30b591066f599bb5f7c3edee333f33b26d3587813",
    "enumerate_10": "cb518e77cd6aa41a843c232e0a4b711434bfb8fc4e7ba878e77cabacc5b103f8",
    "verify_circulants": "c24b72cfead386908dc169da0e50b8e2bf04dcfa13d0f30f5db50c74a9e663d6",
}

# Circulant complements whose half form packs paths (PackAndContract) and
# reaches the n = 4*ell - 1 edge case (SmallCaseEdge), which no other corpus
# does.
CIRCULANTS = ((31, {1, 3, 5, 12}), (33, {1, 6, 10, 15}), (35, {1, 7, 11, 16}))


def _trace_kinds(emit_dir) -> Counter:
    return Counter(
        step["kind"]
        for path in emit_dir.iterdir()
        for step in json.loads(path.read_text())["trace"]
    )


def test_golden_reports_and_certificates(capsys, tmp_path):
    """Reports and emitted certificates stay byte-identical on fixed corpora,
    and together they take every constructor branch."""
    digests = {}
    kinds = Counter()
    emit = tmp_path / "sweep"
    code, out, _ = run(capsys, ["sweep", "1..7", "--emit", str(emit)])
    assert code == 0
    digests["sweep_1_7"] = _digest(out, emit)
    kinds += _trace_kinds(emit)

    src = tmp_path / "random.g6"
    code, out, _ = run(capsys, ["gen", "11", "--random", "6", "--seed", "0"])
    src.write_text(out)
    emit = tmp_path / "half"
    code, out, _ = run(capsys, ["verify", str(src), "--half", "--emit", str(emit)])
    assert code == 0
    digests["verify_half_random_11"] = _digest(out, emit)
    kinds += _trace_kinds(emit)

    joins = [emit_graph6(named("join", named(*a), named(*b))) for a, b in JOIN_FACTORS]
    src = tmp_path / "joins.g6"
    src.write_text("\n".join(joins) + "\n")
    emit = tmp_path / "chi"
    code, out, _ = run(capsys, ["verify", str(src), "--emit", str(emit)])
    assert code == 0
    digests["verify_chi_joins"] = _digest(out, emit)
    kinds += _trace_kinds(emit)

    joins = [
        emit_graph6(named("join", random_alpha2(a, seed), random_alpha2(b, seed)))
        for a, b, seed in RANDOM_JOIN_FACTORS
    ]
    src = tmp_path / "random_joins.g6"
    src.write_text("\n".join(joins) + "\n")
    emit = tmp_path / "chi_random"
    code, out, _ = run(capsys, ["verify", str(src), "--emit", str(emit)])
    assert code == 0
    random_kinds = _trace_kinds(emit)
    assert random_kinds["DeleteNoncriticalVertex"] >= 100 and random_kinds["ParityGlue"] >= 1
    digests["verify_chi_random_joins"] = _digest(out, emit)
    kinds += random_kinds

    src = tmp_path / "circulants.g6"
    src.write_text("".join(emit_graph6(co_circulant(n, steps)) + "\n" for n, steps in CIRCULANTS))
    emit = tmp_path / "circulants"
    reports = ""
    for half in ([], ["--half"]):
        code, out, _ = run(capsys, ["verify", str(src), *half, "--emit", str(emit)])
        assert code == 0
        reports += out
    digests["verify_circulants"] = _digest(reports, emit)
    kinds += _trace_kinds(emit)
    assert set(kinds) == set(TRACE_KINDS)

    # The enumeration order itself, which every sweep report follows; the
    # n = 10 level is shared with test_criterion_6_edge_recipe's universe.
    for n in (8, 9, 10):
        lines = "".join(emit_graph6(g) + "\n" for g in enumerate_alpha2(n))
        digests[f"enumerate_{n}"] = hashlib.sha256(lines.encode()).hexdigest()
    assert digests == GOLDEN
