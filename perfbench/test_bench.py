"""The benchmark's own tests: each correctness check passes gitkit's real
answers and rejects a planted wrong one.

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402
from oracles import CheckFailed  # noqa: E402


def first_op(workload, seed=3, pick=lambda op: True):
    rng = random.Random(seed)
    for _ in range(5):
        for op in workload.round(rng):
            if pick(op):
                return op
    raise LookupError("no operation matched")


def test_oracles_match_known_values():
    assert oracles.weyl_dim((2, 1, 0)) == 8
    assert oracles.weyl_dim((1, 0, 0, 0)) == 4
    assert oracles.majorized((1, 1, 1), (2, 1, 0))
    assert not oracles.majorized((3, 0, 0), (2, 1, 0))
    assert not oracles.majorized((1, 1, 0), (2, 1, 0))
    assert oracles.pieri_one_box(4, 3, 3, 2) == 1      # sigma_1 * sigma_1 = sigma_2
    assert oracles.pieri_one_box(4, 2, 2, 1) == 0      # sigma_2 * sigma_2 = 0 in P^3
    assert oracles.det([[2, 1], [1, 1]]) == 1


def test_stability_check_rejects_destabilizer_off_the_hull():
    w = workloads.Stability()
    op = first_op(w, pick=lambda op: op["expect"]["verdict"] == "Unstable" and op["r"] == 2)
    out = w.run(op)
    w.check(op, out)
    v = out["verdict"]
    # move the nearest point p sideways by a vector as long as itself: off the hull
    p = tuple(-Fraction(c) for c in v.lam_star)
    shift = (p[1], -p[0])
    moved = tuple(-(a + b) for a, b in zip(p, shift))
    bad = dataclasses.replace(v, lam_star=moved, slope_sq=sum(Fraction(c) ** 2 for c in moved))
    with pytest.raises(CheckFailed):
        oracles.nearest_point_certificate(out["x"].weights, tuple(-c for c in moved))
    with pytest.raises(CheckFailed):
        w.check(op, {**out, "verdict": bad})
    with pytest.raises(CheckFailed):
        w.check(op, {**out, "destab": bad})


def test_stability_check_rejects_a_changed_verdict():
    w = workloads.Stability()
    op = first_op(w, pick=lambda op: op["expect"]["verdict"] == "Stable" and op["r"] == 2)
    out = w.run(op)
    w.check(op, out)
    poly = w.st.Polystable(stabilizer_dim=0)
    with pytest.raises(CheckFailed):
        w.check(op, {**out, "verdict": poly})


def test_polytopes_check_rejects_kostant_polytope_missing_a_permutation():
    w = workloads.Polytopes()
    op = first_op(w, pick=lambda op: len(op["lam"]) == 3 and len(set(op["lam"])) == 3)
    out = w.run(op)
    w.check(op, out)
    kp = out["kostant"]
    short = dataclasses.replace(kp, vertices=kp.vertices[1:])
    with pytest.raises(CheckFailed):
        w.check(op, {**out, "kostant": short})


def test_polytopes_check_rejects_wrong_vertex_sum_value():
    w = workloads.Polytopes()
    op = first_op(w)
    out = w.run(op)
    w.check(op, out)
    with pytest.raises(CheckFailed):
        w.check(op, {**out, "value": out["value"] + 1})


def test_horn_check_rejects_lr_count_off_by_one():
    w = workloads.Horn()
    op = first_op(w)
    out = w.run(op)
    w.check(op, out)
    for key in ("lr", "lr_swapped"):
        with pytest.raises(CheckFailed):
            w.check(op, {**out, key: out[key] + 1})
    decomp = dict(out["decomp"])
    nu = next(iter(decomp))
    decomp[nu] += 1
    with pytest.raises(CheckFailed):
        w.check(op, {**out, "decomp": decomp})


def test_horn_check_rejects_wrong_spectrum():
    w = workloads.Horn()
    op = first_op(w)
    out = w.run(op)
    eig = list(out["eig"])
    eig[0] += 1e-6
    with pytest.raises(CheckFailed):
        w.check(op, {**out, "eig": eig})


def test_cli_check_rejects_a_changed_verdict():
    w = workloads.Cli(ROOT)
    op = first_op(w, pick=lambda op: op["group"] == "stability")
    out = w.run(op)
    w.check(op, out)
    got = json.loads(out["stdout"])
    other = next(k for k in workloads.Stability.KINDS if k != got["verdict"])
    changed = json.dumps({**got, "verdict": other}) + "\n"
    with pytest.raises(CheckFailed):
        w.check(op, {**out, "stdout": changed})


def test_cli_check_rejects_wrong_pieri_count():
    w = workloads.Cli(ROOT)
    op = first_op(w, pick=lambda op: op["group"] == "puzzles")
    out = w.run(op)
    w.check(op, out)
    count = json.loads(out["stdout"])["count"]
    with pytest.raises(CheckFailed):
        w.check(op, {**out, "stdout": json.dumps({"count": 1 - count}) + "\n"})


def test_horn_nu_contains_lambda_and_mu():
    rng = random.Random(4)
    for rows, cols in ((1, 2), (2, 2), (3, 3), (2, 4)):
        lam, mu, nu = workloads.lr_triple(rng, rows, cols)
        assert sum(nu) == sum(lam) + sum(mu) and max(nu) <= cols
        assert all(x >= max(a, b) for x, a, b in zip(nu, lam, mu))


def test_kostant_probes_keep_the_coordinate_sum():
    rng = random.Random(4)
    lam = (4, 2, 0)
    probes = [workloads.box_probe(rng, lam) for _ in range(200)]
    assert all(sum(p) == 6 and all(-1 <= x <= 5 for x in p) for p in probes)
    inside = sum(oracles.majorized(p, lam) for p in probes)
    assert 0 < inside < len(probes)


def test_scaling_divides_out_the_calibration():
    import run

    result = {"latencies": [0.1, 0.2, 0.3], "rounds": [0, 0, 1], "slowness": [1.0, 2.0]}
    assert run.scaled_latencies(result) == pytest.approx([0.1, 0.2, 0.15])


def test_checks_hold_under_python_O():
    """A planted wrong LR count is still rejected with assert statements off."""
    code = ("import random, sys\n"
            "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "import workloads\n"
            "w = workloads.Horn()\n"
            "op = w.round(random.Random(3))[0]\n"
            "out = w.run(op)\n"
            "w.check(op, out)\n"
            "try:\n"
            "    w.check(op, {**out, 'lr': out['lr'] + 1})\n"
            "except workloads.CheckFailed:\n"
            "    print('rejected')\n")
    res = subprocess.run([sys.executable, "-O", "-c", code, HERE, os.path.join(ROOT, "src")],
                         capture_output=True, text=True, timeout=60)
    assert res.stdout.strip() == "rejected", res.stderr


def test_run_refuses_without_sources(tmp_path):
    """Without src/gitkit the benchmark exits nonzero and prints no result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "worker.py", "workloads.py", "oracles.py", "tracing.py"):
        (bench / name).write_text(open(os.path.join(HERE, name)).read())
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "horn", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
