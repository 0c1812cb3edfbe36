"""One CLI call of a workload in a fresh interpreter.

Usage: python3 child.py '<json spec>'; ``run.py`` starts it.  The spec names
the checkout root, the workload, the seed, a work directory, whether to trace,
and whether to stop once the input is ready (a set-up sample).  The child
imports the package from the checkout's ``src``, writes the corpus, calls
``alpha2minor.cli.main`` with the report going to ``report.txt`` in the work
directory, and prints one JSON line: the monotonic time at which the input
was ready, the CLI's exit code, the call's wall and CPU time, its own peak RSS
and, when tracing, the tracer's counts and timings.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main() -> None:
    spec = json.loads(sys.argv[1])
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import alpha2minor.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"alpha2minor was imported from {cli.__file__}, not {src}")
    import workloads

    work = Path(spec["work"])
    input_path = work / "input.g6"
    lines = workloads.corpus(spec["workload"], spec["seed"])
    if lines:
        input_path.write_text("".join(line + "\n" for line in lines))
    argv = workloads.cli_argv(spec["workload"], str(input_path), str(work / "certs"))
    ready = time.monotonic()
    if spec["setup_only"]:
        print(json.dumps({"ready": ready}))
        return

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with open(work / "report.txt", "w") as report:
        # The CLI prints its own wall time on stderr; that line is not kept.
        with contextlib.redirect_stdout(report), contextlib.redirect_stderr(io.StringIO()):
            cpu_start = time.process_time_ns()
            start = time.perf_counter_ns()
            code = cli.main(argv)
            wall_ns = time.perf_counter_ns() - start
            cpu_ns = time.process_time_ns() - cpu_start
    result = {
        "ready": ready,
        "code": code,
        "wall_ns": wall_ns,
        "cpu_ns": cpu_ns,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["counts"] = tracer.counts()
        result["timings"] = tracer.timings(wall_ns)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
