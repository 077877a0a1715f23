"""One workload process: set up, then run operations in a closed loop.

Started by run.py as `python worker.py <workload> <seed> <seconds> <mode>`,
with mode `setup` (stop at the point where the first timed operation would
start), `timed` or `traced`.  Prints one JSON line on stdout.

The only imports before gitkit's are from the standard library, so the time
up to the first timed operation is the interpreter's start, `import gitkit`
and, for `cli`, one untimed warm-up call.

In `timed` mode the worker also makes one calibration pass of the
workload's kind after every operation, outside the operation's timing (see
workloads.py); run.py divides the machine's speed out of the latencies with
them.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import resource
import sys
import time
import traceback

import workloads  # the benchmark's own code: standard library only, no gitkit
from oracles import CheckFailed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_OPS = 100          # at least ten operations beyond the 90th percentile
HARD_STOP_S = 120.0    # stop here even short of MIN_OPS, to exit within the time limit

def environment() -> dict:
    import gitkit
    import numpy

    return {"gitkit": os.path.relpath(gitkit.__file__, ROOT),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0))}


def main(argv) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workload = workloads.make(name, ROOT)
    workload.setup()
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    timed = mode == "timed"

    tracer, run = None, workload.run
    if not timed:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        run = functools.partial(workload.run_traced, tracer=tracer)

    rng = random.Random(seed)
    latencies, rounds, slowness, errors = [], [], [], []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    for round_no in itertools.count():
        round_slowness = []
        for op in workload.round(rng):
            attempted += 1
            if tracer is not None:
                tracer.op = attempted - 1
            out = None
            t0 = time.perf_counter()
            try:
                out = run(op)
            except CheckFailed as exc:
                correct = False
                errors.append(f"check: {exc}")
            except Exception as exc:  # an operation that fails is counted, not fatal
                failed += 1
                errors.append("".join(traceback.format_exception_only(exc)).strip())
            t1 = time.perf_counter()
            if timed:
                round_slowness.append(workload.slowness())
            if out is None:
                continue
            latencies.append(t1 - t0)
            rounds.append(round_no)
            try:
                workload.check(op, out)
            except CheckFailed as exc:
                correct = False
                errors.append(f"check: {exc}")
        if timed:
            slowness.append(sum(round_slowness) / len(round_slowness))
        elapsed = time.perf_counter() - start
        enough = len(latencies) >= MIN_OPS and (not timed or elapsed >= seconds)
        if enough or elapsed >= HARD_STOP_S:
            break

    result = {"ready": ready, "latencies": latencies,
              "rounds": rounds, "slowness": slowness, "attempted": attempted, "failed": failed,
              "correct": correct, "errors": errors[:20], "wall_s": elapsed, "env": environment(),
              "peak_rss_mb": resource.getrusage(workload.rusage_who).ru_maxrss / 1024.0}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        tracer.write(os.path.join(HERE, "results", f"trace-{name}-seed{seed}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
