"""Benchmark of the alpha2minor command line over fixed, seeded corpora.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: the package is pure Python and is imported from ``src/`` of
the checkout that holds this file.  Workloads are defined in workloads.py and
explained in BENCHMARK.json.  Every CLI call runs in a fresh interpreter
(child.py), one at a time, so that no call sees caches warmed by another.

``--trace 0`` makes calls for about ``--seconds`` and at least
MIN_CALLS were made, then reports medians over the calls: ``wall_s`` (the CLI
call), ``ok_per_s`` (ok rows per wall second), ``setup_s`` (interpreter start
to input ready: import plus corpus) and ``peak_rss_mb`` (the call's own
process).  ``--trace 1`` makes one untraced call, then traced calls until
about ``--seconds`` and at least two, and reports the
per-layer metrics of tracer.py as medians over the traced calls.

Outside the timed calls every run checks the outputs (gate.py), checks that
all reports and certificates of the run are byte-identical, and with tracing
that the deterministic counts of all traced calls are identical.  A fixed
pure-Python loop is timed before each call as a host-speed diagnostic; it
rescales nothing.  The last stdout line is the JSON result; the lines before
it print every metric with its unit, ``fail_ratio``, and the diagnostics with
counts kept apart from timings.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_CALLS = 3
MIN_TRACED_CALLS = 2
SETUP_SAMPLES = 11  # set-up is short and noisy: extra set-up-only starts
RUN_LIMIT_S = 165.0  # a run must end within 180 s


class CallFailed(RuntimeError):
    pass


def host_probe() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def spawn(workload: str, seed: int, work: Path, trace: bool, setup_only: bool, deadline: float) -> dict:
    """Run child.py; its JSON line plus the time from spawn to input ready."""
    spec = {
        "root": str(ROOT),
        "workload": workload,
        "seed": seed,
        "work": str(work),
        "trace": trace,
        "setup_only": setup_only,
    }
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-E", "-s", str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        raise CallFailed(f"CLI call did not finish within {RUN_LIMIT_S:.0f} s of the run") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise CallFailed(f"child exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["ready"] - spawned
    out["elapsed_s"] = time.monotonic() - spawned
    return out


def cli_call(workload: str, seed: int, trace: bool, work: Path, deadline: float) -> dict:
    work.mkdir()
    probe = host_probe()
    out = spawn(workload, seed, work, trace, False, deadline)
    out["probe_s"] = probe
    out["report"] = (work / "report.txt").read_text()
    out["certs_digest"] = gate.tree_digest(work / "certs")
    return out


def median_call(calls: list[dict]) -> float:
    return median([c["elapsed_s"] for c in calls]) if calls else 0.0


def make_calls(workload: str, seed: int, seconds: int, trace: bool, run_dir: Path) -> tuple[list, list, list]:
    """Untraced calls, traced calls and set-up times of one run."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    if trace:
        want, minimum, target = True, MIN_TRACED_CALLS, traced
        plain.append(cli_call(workload, seed, False, run_dir / "0", deadline))
    else:
        want, minimum, target = False, MIN_CALLS, plain
    # Start another call while it is expected to end less than half a call
    # after ``seconds``, so that a run lasts about ``seconds``.
    while len(target) < minimum or time.monotonic() - start + median_call(target) / 2 < seconds:
        longest = max((c["elapsed_s"] for c in plain + traced), default=0.0)
        if len(target) >= minimum and time.monotonic() + longest > deadline:
            break
        target.append(cli_call(workload, seed, want, run_dir / str(len(plain) + len(traced)), deadline))
    setups = [c["setup_s"] for c in plain]
    if not trace:
        (run_dir / "setup").mkdir()
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(workload, seed, run_dir / "setup", False, True, deadline)["setup_s"])
    return plain, traced, setups


def check_outputs(workload: str, calls: list[dict], run_dir: Path) -> dict:
    """Gate the first call's outputs; every other call must match it byte for byte."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import alpha2minor as a2

    first = calls[0]
    codes = sorted({c["code"] for c in calls})
    if workload == "sweep_exhaustive":
        outcome = gate.check_sweep(first["report"])
    else:
        lines = (run_dir / "0" / "input.g6").read_text().splitlines()
        outcome = gate.check_verify(
            first["report"], lines, run_dir / "0" / "certs", workload == "verify_random_half", a2
        )
    expected_code = 1 if outcome["failed"] else 0
    if codes != [expected_code]:
        outcome["problems"].append(f"CLI exit codes {codes}, expected {expected_code}")
    if len({c["report"] for c in calls}) != 1:
        outcome["problems"].append("reports differ between calls with the same seed")
    if len({c["certs_digest"] for c in calls}) != 1:
        outcome["problems"].append("certificates differ between calls with the same seed")
    return outcome


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "alpha2minor" / "cli.py").is_file():
        print(f"error: no alpha2minor package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        plain, traced, setups = make_calls(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
        outcome = check_outputs(args.workload, plain + traced, run_dir)
    except CallFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    measured = traced if args.trace else plain
    failed_rows = sum(outcome["failed"].values())
    counts: dict = {"rows_per_call": {"attempted": outcome["attempted"], "ok": outcome["ok"], "failed": outcome["failed"]}}
    timings: dict = {
        "wall_s_each": [c["wall_ns"] / 1e9 for c in measured],
        "cpu_s_each": [c["cpu_ns"] / 1e9 for c in measured],
        "host_probe_s_each": [c["probe_s"] for c in measured],
    }
    if args.trace:
        units = tracer.metric_units()
        per_call = [tracer.layer_metrics(c["counts"], c["timings"]) for c in traced]
        values = {name: median([v[name] for v in per_call]) for name in units if name in per_call[0]}
        values["trace.overhead_ratio"] = median([c["wall_ns"] for c in traced]) / plain[0]["wall_ns"]
        counts["trace"] = traced[0]["counts"]
        if any(c["counts"] != traced[0]["counts"] for c in traced):
            outcome["problems"].append("deterministic counts differ between traced calls")
        if any(sum(c["timings"]["self_ns"].values()) + c["timings"]["cli_self_ns"] != c["wall_ns"] for c in traced):
            outcome["problems"].append("self times plus cli.self_s do not add up to the traced wall time")
        timings["untraced_wall_s"] = plain[0]["wall_ns"] / 1e9
    else:
        units = {"wall_s": "s", "ok_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
        values = {
            "wall_s": median([c["wall_ns"] / 1e9 for c in plain]),
            "ok_per_s": median([outcome["ok"] / (c["wall_ns"] / 1e9) for c in plain]),
            "setup_s": median(setups),
            "peak_rss_mb": median([c["rss_kb"] / 1024 for c in plain]),
        }
        timings["setup_s_each"] = setups
        timings["peak_rss_mb_each"] = [c["rss_kb"] / 1024 for c in plain]

    attempted = outcome["attempted"] * len(measured)
    fail_ratio = failed_rows / outcome["attempted"] if outcome["attempted"] else 0.0
    for name, value in values.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(f"{args.workload} fail_ratio {fail_ratio:.6g} (failed {outcome['failed'] or 0} of {outcome['attempted']} rows per call)")
    for problem in outcome["problems"]:
        print(f"{args.workload} problem: {problem}")
    print(json.dumps({"diagnostics": {"calls": len(measured), "counts": counts, "timings": timings}}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not outcome["problems"] and outcome["attempted"] > 0,
                "attempted": max(1, attempted),
                "failed": failed_rows * len(measured),
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
