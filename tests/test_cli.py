import hashlib
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from alpha2minor import (
    certificate_to_json,
    chromatic_number_alpha2,
    cli,
    construct_chi_minor,
    emit_graph6,
    enumerate_alpha2,
    parse_graph6,
    random_alpha2,
)
from alpha2minor.cli import main
from alpha2minor.construct import TRACE_KINDS, ceil_half
from conftest import CIRCULANTS, co_circulant
from zoo import clique_join_independent_graph, complete, cycle, five_wheel, join, petersen_complement

C5 = emit_graph6(cycle(5))
C6 = emit_graph6(cycle(6))
PC = emit_graph6(petersen_complement())


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        # A text stream over bytes, as a real stdin is: the CLI reads its
        # ``buffer``.
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin.encode())))
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
        src.write_text("ThisIsNotGraph6!!!\nD!c\n" + C5 + "\n")
        code, out, _ = run(capsys, ["verify", str(src)])
        assert code == 1
        assert "1,ThisIsNotGraph6!!!,0,-,failed,malformed graph6" in out
        assert "\n2,D!c,0,-,failed,malformed graph6: byte '!' out of graph6 range\n" in out
        assert f"3,{C5},1,chi,ok," in out

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
        assert multiprocessing.active_children() == []

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
        code, _, err = run(capsys, ["sweep", "12"])
        assert code == 2
        assert "capped" in err

    def test_cap_checked_before_any_certificate(self, capsys, tmp_path):
        # The orders below the cap are not checked and certified first.
        emit = tmp_path / "certs"
        code, out, err = run(capsys, ["sweep", "1..12", "--emit", str(emit)])
        assert code == 2
        assert out == ""
        assert err == "error: exhaustive enumeration capped at n = 11\n"
        assert not emit.exists()

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

    def test_one_pool_for_the_whole_range(self, capsys, monkeypatch):
        made = []
        pool = cli.Pool
        monkeypatch.setattr(cli, "Pool", lambda **kwargs: made.append(kwargs) or pool(**kwargs))
        code, out, _ = run(capsys, ["sweep", "1..6", "--jobs", "2"])
        assert code == 0
        assert made == [{"processes": 2}]
        assert out == run(capsys, ["sweep", "1..6"])[1]

    def test_each_packing_question_asked_once(self, capsys, monkeypatch, universe):
        # The four conditions are asked once per graph, and the iff row and
        # the guarantee rows share one packing search per (graph, ell).
        conditions, packings = Counter(), Counter()
        check, find = cli.check_packing_conditions, cli.find_p3_packing
        monkeypatch.setattr(cli, "check_packing_conditions", lambda g: conditions.update([g]) or check(g))
        monkeypatch.setattr(
            cli, "find_p3_packing", lambda g, ell: packings.update([(g, ell)]) or find(g, ell)
        )
        code, _, _ = run(capsys, ["sweep", "1..8"])
        assert code == 0
        graphs = [g for n in range(1, 9) for g in universe(n)]
        assert conditions == Counter(graphs)
        assert packings == Counter(
            (g, ell) for g in graphs for ell in range(1, (g.n + 2) // 3 + 1)
        )

    def test_one_stream_for_the_whole_range(self, capsys, monkeypatch):
        # One enumeration of every order, streamed into the checks with no
        # list in between; an order above the cap or below zero fails before
        # anything is checked.
        asked, handed = [], []
        enumerate_, check = cli.enumerate_alpha2, cli._check_lines
        monkeypatch.setattr(
            cli, "enumerate_alpha2", lambda *ns, cap: asked.append(ns) or enumerate_(*ns, cap=cap)
        )
        monkeypatch.setattr(
            cli, "_check_lines", lambda *args: handed.append(args[1]) or check(*args)
        )
        code, out, _ = run(capsys, ["sweep", "1..6"])
        assert code == 0
        assert asked == [(1, 2, 3, 4, 5, 6)]
        assert len(handed) == 1 and not isinstance(handed[0], (list, tuple))
        assert "6,0,38,0,0,0," in out
        asked.clear()
        handed.clear()
        for argv, message in (("1..12", "capped at n = 11"), ("-1..9", "nonnegative")):
            code, out, err = run(capsys, ["sweep", "--", argv])
            assert code == 2 and out == "" and message in err
        assert asked == [tuple(range(1, 13))]
        assert handed == []

    def test_negative_order_fails_with_either_source(self, capsys, tmp_path):
        src = tmp_path / "c5.g6"
        src.write_text(C5 + "\n")
        for source in ([], ["--input", str(src)]):
            code, out, err = run(capsys, ["sweep", *source, "--", "-1..5"])
            assert code == 2 and out == ""
            assert "vertex count must be nonnegative" in err

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
        "argv,files",
        [
            pytest.param(["verify"], None, id="verify"),
            pytest.param(["verify", "--emit"], 1, id="verify --emit"),
            pytest.param(["sweep", "5"], None, id="sweep"),
            pytest.param(["sweep", "5", "--emit"], 33, id="sweep --emit"),
            pytest.param(["gen", "5"], None, id="gen"),
        ],
    )
    def test_one_wall_time_line(self, capsys, monkeypatch, tmp_path, argv, files):
        # With --emit, the line comes after the writer created every file.
        emit = tmp_path / "certs"
        if files is not None:
            argv = [*argv, str(emit)]
        code, _, err = run(capsys, argv, stdin=C5 + "\n", monkeypatch=monkeypatch)
        assert code == 0
        assert re.fullmatch(rf"{argv[0]}: \d+\.\d\ds wall\n", err)
        if files is not None:
            assert len(list(emit.iterdir())) == files

    @pytest.mark.parametrize(
        "argv",
        [["verify"], ["sweep", "4", "--input"]],
        ids=["verify", "sweep --input"],
    )
    def test_undecodable_input_is_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        # The error names the file, or <stdin>, as an OSError's text does.
        bad = tmp_path / "bad.g6"
        bad.write_bytes(b"\xff\xfeDhc\n")
        reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        code, out, err = run(capsys, [*argv, str(bad)])
        assert (code, out, err) == (2, "", f"error: {bad}: {reason}\n")
        if argv[0] != "sweep":
            stdin = io.TextIOWrapper(io.BytesIO(bad.read_bytes()), encoding="utf-8")
            monkeypatch.setattr(sys, "stdin", stdin)
            code, out, err = run(capsys, argv)
            assert (code, out, err) == (2, "", f"error: <stdin>: {reason}\n")

    @pytest.mark.parametrize("encoding", ["utf-8", "ascii"])
    @pytest.mark.parametrize(
        "argv", [["verify"], ["sweep", "4", "--input", "-"]], ids=["verify", "sweep stdin"]
    )
    def test_stdin_decoded_strictly_whatever_the_locale(self, capsys, monkeypatch, argv, encoding):
        # Under a C or C.UTF-8 locale the stdin text stream escapes bad bytes
        # instead of failing; the bytes under it are decoded as a file's are.
        stdin = io.TextIOWrapper(
            io.BytesIO(b"\xff\xfeDhc\n"), encoding=encoding, errors="surrogateescape"
        )
        monkeypatch.setattr(sys, "stdin", stdin)
        reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        assert run(capsys, argv) == (2, "", f"error: <stdin>: {reason}\n")

    def test_file_decoded_as_utf8_whatever_the_locale(self, tmp_path):
        # With UTF-8 mode off under the C locale, the locale's codec is ASCII;
        # a valid UTF-8 line is still read, and reported as malformed graph6,
        # escaped where the ASCII stdout cannot hold it.
        src = tmp_path / "in.g6"
        src.write_bytes(f"\u00e9\n{C5}\n".encode())
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "LC_ALL": "C", "PYTHONPATH": os.pathsep.join(filter(None, path))}
        outputs = []
        for argv in (["verify"], ["verify", "--format", "json"]):
            done = subprocess.run(
                [sys.executable, "-X", "utf8=0", "-m", "alpha2minor.cli", *argv, str(src)],
                capture_output=True, text=True, env=env,
            )
            assert done.returncode == 1, done.stderr
            outputs.append(done.stdout)
        csv, report = outputs
        assert "1,\\xe9,0,-,failed,malformed graph6: byte '\\xe9' out of graph6 range" in csv
        assert f"2,{C5},1,chi,ok," in csv
        results = json.loads(report)["results"]
        assert [(r["graph6"], r["status"]) for r in results] == [("\u00e9", "failed"), (C5, "ok")]

    def test_lines_end_at_line_feed_only(self, capsys, monkeypatch, tmp_path):
        # A form feed is a line break to str.splitlines, not to graph6 files;
        # a carriage return before the line feed is dropped.
        data = f"{C5}\x0c{C5}\n{C5}\r\n"
        src = tmp_path / "in.g6"
        src.write_bytes(data.encode())
        code, out, _ = run(capsys, ["verify", str(src)])
        assert code == 1
        assert f"1,{C5}\x0c{C5},0,-,failed,malformed graph6" in out
        assert f"2,{C5},1,chi,ok," in out
        assert "# processed=2 succeeded=1 failed=1 skipped=0" in out
        assert run(capsys, ["verify"], stdin=data, monkeypatch=monkeypatch)[:2] == (1, out)

    def test_jobs_capped_at_item_count(self, capsys, monkeypatch, tmp_path):
        # Any input, a list or the built-in sweep's stream, runs on at most
        # one worker per item, in tasks of a quarter of each worker's share.
        started = []

        class InlinePool:
            def __init__(self, processes):
                self.processes = processes

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items, chunksize):
                started.append((self.processes, chunksize))
                return map(fn, items)

        monkeypatch.setattr(cli, "Pool", InlinePool)
        src = tmp_path / "in.g6"
        src.write_text(f"{C5}\n{PC}\n")
        code, out, _ = run(capsys, ["verify", str(src), "--jobs", "8"])
        assert code == 0
        assert started == [(2, 1)]
        assert "# processed=2 succeeded=2" in out
        src.write_text(f"{C5}\n" * 40)
        assert run(capsys, ["verify", str(src), "--jobs", "2"])[0] == 0
        assert run(capsys, ["sweep", "5", "--input", str(src), "--jobs", "4"])[0] == 0
        assert run(capsys, ["sweep", "1..3", "--jobs", "8"])[0] == 0
        assert started == [(2, 1), (2, 5), (4, 2), (6, 1)]

    def test_jobs_parallel_matches_serial(self, capsys, monkeypatch):
        code1, out1, _ = run(capsys, ["sweep", "5", "--jobs", "2"])
        code2, out2, _ = run(capsys, ["sweep", "5"])
        assert code1 == code2 == 0
        assert out1 == out2


def _cert_name(line: str, ell: int, form: str) -> str:
    return f"{hashlib.sha256(line.encode()).hexdigest()[:16]}_ell{ell}_{form}.json"


def _cert_names(lines, forms: tuple[str, ...]) -> list[str]:
    """The sorted file names of the certificates at every ell of each form,
    for graphs on which every construction succeeds."""
    names = []
    for line in lines:
        g = parse_graph6(line)
        for form in forms:
            bound = ceil_half(g.n) if form == "half" else chromatic_number_alpha2(g)
            names += [_cert_name(line, ell, form) for ell in range(1, bound // 2 + 1)]
    return sorted(names)


# Runs the CLI calls given as JSON in a fresh interpreter, then reports their
# exit codes and whether OpenSSL's hashlib backend was loaded.
_OPENSSL_PROBE = """
import contextlib, io, json, sys
from alpha2minor.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "openssl": "_hashlib" in sys.modules}))
"""


class TestEmit:
    """``--emit`` hands each graph's certificates to one writer process; it is
    joined on every path, and a failed mkdir or write is a usage error with
    the OSError's text and no report."""

    def test_empty_input_still_makes_directory(self, capsys, monkeypatch, tmp_path):
        emit = tmp_path / "a" / "certs"
        code, _, _ = run(capsys, ["verify", "--emit", str(emit)], stdin="", monkeypatch=monkeypatch)
        assert code == 0
        assert emit.is_dir() and not any(emit.iterdir())
        assert multiprocessing.active_children() == []

    def test_emit_at_regular_file(self, capsys, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text(C5 + "\n")
        emit = tmp_path / "certs"
        emit.write_text("")
        with pytest.raises(OSError) as expected:
            emit.mkdir(parents=True, exist_ok=True)
        for argv in (["verify", str(src)], ["sweep", "5"]):
            code, out, err = run(capsys, [*argv, "--emit", str(emit)])
            assert code == 2
            assert out == ""
            assert err == f"error: {expected.value}\n"
            assert multiprocessing.active_children() == []

    def test_write_fails_mid_stream(self, capsys, tmp_path):
        # The second graph's first certificate name is taken by a directory:
        # the first graph's file is written, then the run fails with the
        # text of the failed write.
        src = tmp_path / "in.g6"
        src.write_text(f"{C5}\n{PC}\n")
        emit = tmp_path / "certs"
        blocked = emit / _cert_name(PC, 1, "chi")
        blocked.mkdir(parents=True)
        with pytest.raises(OSError) as expected:
            blocked.write_text("")
        for jobs in ("1", "2"):
            code, out, err = run(capsys, ["verify", str(src), "--emit", str(emit), "--jobs", jobs])
            assert code == 2
            assert out == ""
            assert err == f"error: {expected.value}\n"
            assert (emit / _cert_name(C5, 1, "chi")).is_file()
            assert multiprocessing.active_children() == []

    def test_worker_exception_joins_writer(self, capsys, monkeypatch, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text(f"{C5}\n{PC}\n")
        construct_rows = cli._construct_rows

        def fail_on_pc(forms, ells, want_certs, g, line):
            if line == PC:
                raise RuntimeError("worker failed")
            return construct_rows(forms, ells, want_certs, g, line)

        monkeypatch.setattr(cli, "_construct_rows", fail_on_pc)
        # Pool workers see the patch only when they are forked.
        fork = multiprocessing.get_start_method() == "fork"
        for jobs in ("1", "2") if fork else ("1",):
            emit = tmp_path / f"certs{jobs}"
            with pytest.raises(RuntimeError, match="worker failed"):
                main(["verify", str(src), "--emit", str(emit), "--jobs", jobs])
            assert [path.name for path in emit.iterdir()] == [_cert_name(C5, 1, "chi")]
            assert multiprocessing.active_children() == []

    def test_emitted_file_is_the_sorted_indented_certificate(self, capsys, tmp_path):
        # Workers hand over each certificate's text; the writer only names
        # the file and writes the text unchanged.
        c5 = cycle(5)
        cert = certificate_to_json(construct_chi_minor(c5, 1))
        text = json.dumps(cert, sort_keys=True, indent=2) + "\n"
        rows, certs = cli._construct_rows(("chi",), None, True, c5, C5)
        assert rows == [cli.Row(1, "chi", "ok")]
        assert certs == [((C5, 1, "chi"), text)]
        src = tmp_path / "in.g6"
        src.write_text(C5 + "\n")
        emit = tmp_path / "certs"
        code, _, _ = run(capsys, ["verify", str(src), "--emit", str(emit)])
        assert code == 0
        assert (emit / _cert_name(C5, 1, "chi")).read_text() == text

    def test_only_the_writer_loads_openssl(self, tmp_path):
        # The writer names the files from the lines' sha256, so the main
        # process never imports hashlib, and the names are unchanged.  A fresh
        # interpreter, since this one has imported hashlib.
        src = tmp_path / "in.g6"
        src.write_text(f"{C5}\n{PC}\n")
        runs = []
        for jobs in ("1", "2"):
            runs.append(["sweep", "1..6", "--emit", str(tmp_path / f"sweep{jobs}"), "--jobs", jobs])
            runs.append(["verify", str(src), "--emit", str(tmp_path / f"verify{jobs}"), "--jobs", jobs])
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        done = subprocess.run(
            [sys.executable, "-c", _OPENSSL_PROBE, json.dumps(runs)],
            capture_output=True, text=True, env=env, check=True,
        )
        assert json.loads(done.stdout) == {"codes": [0, 0, 0, 0], "openssl": False}
        universe = [emit_graph6(g) for n in range(1, 7) for g in enumerate_alpha2(n)]
        expected = {
            "sweep": _cert_names(universe, ("half", "chi")),
            "verify": _cert_names([C5, PC], ("chi",)),
        }
        assert len(expected["sweep"]) == 156
        for command, names in expected.items():
            for jobs in ("1", "2"):
                assert sorted(p.name for p in (tmp_path / f"{command}{jobs}").iterdir()) == names

    def test_parallel_matches_serial(self, capsys, tmp_path):
        src = tmp_path / "in.g6"
        _, out, _ = run(capsys, ["gen", "11", "--random", "6", "--seed", "0"])
        src.write_text(out + PC + "\n")
        digests = set()
        for jobs in ("1", "2"):
            emit = tmp_path / f"certs{jobs}"
            code, out, _ = run(capsys, ["verify", str(src), "--emit", str(emit), "--jobs", jobs])
            assert code == 0
            digests.add(_digest(out, emit))
            assert multiprocessing.active_children() == []
        assert len(digests) == 1


def _digest(report: str, emit_dir) -> str:
    """sha256 over a report and every certificate file name and its bytes."""
    h = hashlib.sha256(report.encode())
    for path in sorted(emit_dir.iterdir()) if emit_dir.is_dir() else ():
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


JOIN_FACTORS = (
    (cycle(5), cycle(5)),
    (cycle(5), complete(4)),
    (petersen_complement(), complete(2)),
    (five_wheel(), cycle(5)),
    (complete(3), five_wheel()),
    (clique_join_independent_graph(2, 2), cycle(5)),
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
    "sweep_1_7": "0760d7d50052a07248c4a7383ef9d310d8366a4d96a8f0e12dfb3aa073e8bbdf",
    "verify_half_random_11": "b6a5c02e2515827c2fa7fcffae966176a7101993b776d7f01ff7173b2736c57b",
    "verify_chi_joins": "2d10d9f16c7fbd3b22badc22bfdd4b93e800fe1e345fe4d2ca4b906108ccc5c6",
    "verify_chi_random_joins": "dcf58a6383a962ac0c023d6d913fc5c5ed5cee4a1a723aa18779fba86afbd57d",
    "enumerate_8": "8469a0488cf2426b76699f29281a8e0e02a6c25f7f7f38df7b514566fb2f834c",
    "enumerate_9": "27cd39ab67d854cf0d7ea8bf84629577cf8fe4cbf6ce2d4add4d65b553a42450",
    "enumerate_10": "6b8dacc7577627c2e4d5c3d086d2f95bcc0395ab94bacddcd3ab85de4bbda4b2",
    "verify_circulants": "c24b72cfead386908dc169da0e50b8e2bf04dcfa13d0f30f5db50c74a9e663d6",
}

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

    joins = [emit_graph6(join(a, b)) for a, b in JOIN_FACTORS]
    src = tmp_path / "joins.g6"
    src.write_text("\n".join(joins) + "\n")
    emit = tmp_path / "chi"
    code, out, _ = run(capsys, ["verify", str(src), "--emit", str(emit)])
    assert code == 0
    digests["verify_chi_joins"] = _digest(out, emit)
    kinds += _trace_kinds(emit)

    joins = [
        emit_graph6(join(random_alpha2(a, seed), random_alpha2(b, seed)))
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
