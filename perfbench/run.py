"""gitkit benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload stability --seed 1 --seconds 20 --trace 0

Run from the repository root.  gitkit is imported from ./src; nothing is
installed.  The workload runs in a child process (worker.py), a closed loop
with one client.  Set-up is measured in SETUPS separate processes and
reported as their median.  With --trace 0 the last line of stdout carries the
end-to-end metrics; with --trace 1 the run wraps gitkit's layers and reports
the per-layer metrics instead.  A copy of each result, with the raw latencies,
is written under perfbench/results/.

Latencies are given at a fixed machine speed: each is divided by the mean
slowness of the calibration passes of its round (see workloads.py and the
README).  `setup_s` is not scaled.  The unscaled figures are in the line
before the result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stability", "polytopes", "horn", "cli")
SETUPS = 7
CHILD_TIMEOUT_S = 170


def spawn(workload: str, seed: int, seconds: float, mode: str) -> tuple[dict, float]:
    """Run one worker; returns its JSON result and its set-up time."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
            str(seconds), mode]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker {workload}/{mode} did not finish in {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker {workload}/{mode} exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["ready"] - t_spawn


def scaled_latencies(result: dict) -> list:
    slow = result["slowness"]
    return [t / slow[k] for t, k in zip(result["latencies"], result["rounds"])]


def latency_metrics(lat: list) -> dict:
    return {
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "ops/s"},
        "latency_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "latency_p90_ms": {"value": statistics.quantiles(lat, n=10)[8] * 1e3, "unit": "ms"},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "gitkit", "__init__.py")):
        print(f"no gitkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            setups.append(spawn(args.workload, args.seed, args.seconds, "setup")[1])
    result, setup = spawn(args.workload, args.seed, args.seconds,
                          "traced" if args.trace else "timed")
    setups.append(setup)

    ops = len(result["latencies"])
    if ops == 0:
        print(f"no operation completed: {result['errors'][:3]}", file=sys.stderr)
        return 1
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": result["env"], "wall_s": result["wall_s"], "ops": ops,
            "errors": result["errors"]}
    if args.trace:
        metrics = result["layers"]
        info["traced_ops_per_s"] = ops / sum(result["latencies"])
        info["spans"] = result["spans"]
    else:
        metrics = {**latency_metrics(scaled_latencies(result)),
                   "setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"}}
        info["unscaled"] = {k: v["value"]
                            for k, v in latency_metrics(result["latencies"]).items()}
        info["setup_samples_s"] = setups
        info["slowness"] = result["slowness"]
    final = {"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({**info, **final, "latencies_s": result["latencies"],
                   "rounds": result["rounds"]}, fh)
    print(json.dumps(info))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
