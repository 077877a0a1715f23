"""The four workloads: how each makes its inputs, runs one operation, and
checks the answer.

One operation is one composite user request.  Inputs come from a
`random.Random` seeded by the benchmark's `--seed`; gitkit only ever sees the
finished inputs.  Operations come in rounds.  A round is one pass, in random
order, over a fixed catalog of operation sizes (kind, rank, number of weights,
highest weight, ...) that spreads from cheap to expensive without large gaps;
the seed draws everything else (the geometry, shifts, masses, spectra,
polytopes).  A run ends on a round boundary, so every run has the same mix of
sizes, and its mean and percentiles do not hinge on which sizes a seed picked.

`run` looks gitkit's functions up on their modules at call time
(`self.st.classify_stability(x)`), so the traced run's wrappers see every
call.  Besides `round`, `run` and `check`, each workload has `setup()` (the
untimed part of set-up after its imports), `run_traced(op, tracer)` (one
operation of the traced run), `rusage_who` (whose peak memory counts) and
`slowness()` (one calibration pass, see below).
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

from oracles import (
    CheckFailed,
    LatticePolytope,
    add,
    det,
    dot,
    majorized,
    monomial_sum,
    nearest_point_certificate,
    partitions_in_box,
    permutations_of,
    pieri_one_box,
    rank_of,
    require,
    rho,
    scale,
    weyl_dim,
)

# c08's agreement tolerances between descent and the exact classification
DESCENT_TOL = 1e-6
ESCAPE_ANGLE = 1e-3
ESCAPE_SLOPE = 1e-4
SCALE = 2       # stability weights are integer vectors divided by this


def int_vector(rng, r: int, k: int) -> tuple:
    while True:
        v = tuple(rng.randint(-k, k) for _ in range(r))
        if any(v):
            return v


def perp_vector(rng, p, k: int) -> tuple:
    """A random vector orthogonal to p (exact projection of an integer vector)."""
    u = int_vector(rng, len(p), k)
    return add(u, scale(-dot(u, p) / dot(p, p), p))


def masses(rng, n: int) -> list:
    return [Fraction(rng.randint(2, 8), rng.randint(2, 4)) for _ in range(n)]


# ================================================================ calibration
#
# Fixed work that calls nothing in gitkit, timed between operations, so that
# run.py can divide the machine's speed out of the timings (README, "Machine
# speed").  Each pass comes with its time on the machine of the README's
# figures in a quiet phase; a slowness is a pass's time over that reference.

CAL_POINTS = tuple((Fraction(i % 7, 3), Fraction(i % 5, 2), Fraction(i % 3, 4)) for i in range(8))
PYTHON_PASS_REF_S = 0.0025
START_PASS_ARGV = [sys.executable, "-S", "-c", "import argparse, json, fractions"]
START_PASS_REF_S = 0.065


def python_slowness() -> float:
    """Pure Python of the kind gitkit's kernels run (exact determinants,
    dict counting, float arithmetic), with the garbage collector off so that
    gitkit's garbage is not collected here."""
    gc.disable()
    t0 = time.perf_counter()
    seen: dict = {}
    for a, b, c in itertools.combinations(CAL_POINTS, 3):
        d = (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
             + a[2] * (b[0] * c[1] - b[1] * c[0]))
        seen[d] = seen.get(d, 0) + 1
    x = 0.0
    for i in range(1500):
        x = (x * 0.5 + i) % 97.0
    t1 = time.perf_counter()
    gc.enable()
    return (t1 - t0) / PYTHON_PASS_REF_S


def start_slowness() -> float:
    """A fresh interpreter that imports a few standard modules: process
    start-up, which the pure-Python pass does not track."""
    t0 = time.perf_counter()
    subprocess.run(START_PASS_ARGV, check=True, timeout=60)
    return (time.perf_counter() - t0) / START_PASS_REF_S


class InProcess:
    """A workload that calls gitkit in the worker's own process; its
    constructor's imports are the program's part of set-up."""

    rusage_who = resource.RUSAGE_SELF
    slowness = staticmethod(python_slowness)

    def setup(self) -> None:
        pass

    def run_traced(self, op, tracer) -> dict:
        return self.run(op)


# ================================================================ stability

def well_conditioned(rng, k: int) -> list:
    """k integer vectors in Z^k: a signed permutation of diag(3) plus entries
    in {-1, 0, 1} off the diagonal (three quarters of them 0)."""
    perm = list(range(k))
    rng.shuffle(perm)
    return [tuple(rng.choice((-3, 3)) if j == perm[i] else rng.choice((-1, 0, 0, 0, 0, 0, 1))
                  for j in range(k)) for i in range(k)]


def simplex_around_origin(rng, k: int, r: int, basis) -> list:
    """k+1 points spanning the k-dimensional span of `basis`, with the origin
    well inside their simplex: v_0 = -(sum c_i v_i) / sum c_i, c_i in [1, 2],
    so the origin's barycentric coordinates are 1/2 at v_0 and at least
    1/(4k) at every other vertex.  The simplex is fat, which keeps the
    descent's iteration count within a narrow range."""
    coords = well_conditioned(rng, k)
    cs = [Fraction(rng.randint(2, 4), 2) for _ in range(k)]
    v0 = tuple(-sum(c * v[j] for c, v in zip(cs, coords)) / sum(cs) for j in range(k))
    return [tuple(sum(Fraction(y[j]) * basis[j][i] for j in range(k)) for i in range(r))
            for y in [v0] + coords]


def fill(ws: list, n: int, draw) -> None:
    """Append draws that are not yet among the weights until there are n."""
    seen = {tuple(Fraction(c) for c in w) for w in ws}
    while len(seen) < n:
        w = draw()
        key = tuple(Fraction(c) for c in w)
        if key not in seen:
            seen.add(key)
            ws.append(w)


def make_stability_point(rng, kind: str, r: int, n: int) -> dict:
    """Weights and masses of a point whose verdict is known by construction.

    The subspace dimension k (polystable, strictly semistable) and the size f
    of the destabilizing face (unstable) follow from (r, n), so each catalog
    entry has one combinatorial type; the seed draws the geometry.

    Weights are built from small integer vectors and divided by SCALE, which
    keeps them at the scale of the descent contract (c08: coordinates within
    about 1.5); see the README for why."""
    expect: dict = {"verdict": kind}
    if kind == "Stable":
        basis = [tuple(int(i == j) for i in range(r)) for j in range(r)]
        ws = simplex_around_origin(rng, r, r, basis)
        fill(ws, n, lambda: int_vector(rng, r, 2))
    elif kind == "Polystable":
        k = 1 + n % (r - 1)
        axes = rng.sample(range(r), k + 1)
        basis = [tuple(int(i == axes[j]) + rng.choice((-1, 1)) * int(i == axes[j + 1])
                       for i in range(r)) for j in range(k)]
        ws = simplex_around_origin(rng, k, r, basis)

        def in_span():
            y = int_vector(rng, k, 5 if k == 1 else 1)
            return tuple(sum(y[j] * basis[j][i] for j in range(k)) for i in range(r))
        fill(ws, n, in_span)
        expect["stabilizer_dim"] = r - k
    elif kind == "SemistableNotPolystable":
        v = int_vector(rng, r, 1)
        k = 1 + n % (r - 1)
        basis = [perp_vector(rng, v, 2) for _ in range(k)]
        while rank_of(basis) != k:
            basis = [perp_vector(rng, v, 2) for _ in range(k)]
        ws = simplex_around_origin(rng, k, r, basis)
        expect["jh_face"] = sorted({scale(Fraction(1, SCALE), w) for w in ws})

        def above():
            w = int_vector(rng, r, 2)
            return w if dot(w, v) > 0 else above()
        fill(ws, n, above)
    else:  # Unstable: plant the nearest point p inside a face on <x, p> = |p|^2
        p = int_vector(rng, r, 1)
        f = 1 + n % min(r, n - 1)
        ds = [perp_vector(rng, p, 1) for _ in range(f - 1)]
        cs = [Fraction(rng.randint(1, 3)) for _ in range(f)]
        last = tuple(-sum(c * d[i] for c, d in zip(cs, ds)) / cs[-1] for i in range(r))
        ws = [add(p, d) for d in ds + [last]]
        fill(ws, n, lambda: add(scale(1 + Fraction(rng.randint(1, 4), 2), p),
                                perp_vector(rng, p, 2)))
        expect["p"] = scale(Fraction(1, SCALE), p)
    ws = [scale(Fraction(1, SCALE), w) for w in ws]
    return {"r": r, "weights": ws, "masses": masses(rng, len(ws)), "expect": expect}


class Stability(InProcess):
    """Random projective points with a planted verdict."""

    KINDS = ("Stable", "Polystable", "SemistableNotPolystable", "Unstable")
    # (rank, number of weights)
    SIZES = tuple((r, n) for r, lo, hi in ((2, 4, 8), (3, 4, 9), (4, 5, 9))
                  for n in range(lo, hi + 1))
    CATALOG = tuple((kind, r, n) for kind, (r, n) in itertools.product(KINDS, SIZES))
    # A fixed stable point with a thin simplex around the origin, on which
    # descent needs about 4300 iterations; the built points are better
    # conditioned.  With it a round has 65 operations, so that the median and
    # the 90th percentile of a run fall inside one entry's cluster of
    # latencies, not on the step between two entries.
    SLOW_DESCENT = {"r": 3,
                    "weights": [("-3/4", "-7/8", "5/8"), ("1/2", 1, -1), (1, 1, "-1/2"),
                                ("1/2", "1/2", "-1/2")],
                    "masses": [4, 4, 1, 2], "expect": {"verdict": "Stable"}}

    def __init__(self):
        from gitkit import stability
        self.st = stability

    def round(self, rng) -> list:
        out = [make_stability_point(rng, kind, r, n) for kind, r, n in self.CATALOG]
        out.append(self.SLOW_DESCENT)
        rng.shuffle(out)
        return out

    def run(self, op) -> dict:
        st = self.st
        x = st.proj_point(op["weights"], op["masses"])
        out = {"x": x, "verdict": st.classify_stability(x)}
        kind = op["expect"]["verdict"]
        if kind == "Unstable":
            out["destab"] = st.max_destabilizing(x)
        if op["r"] <= 3 and kind != "SemistableNotPolystable":
            out["flow"] = st.minimize_kempf_ness(x, tol=DESCENT_TOL, max_iter=10 ** 5)
        return out

    def check(self, op, out) -> None:
        exp, v = op["expect"], out["verdict"]
        require(v.verdict == exp["verdict"], "verdict", exp["verdict"], v)
        if exp["verdict"] == "Polystable":
            require(v.stabilizer_dim == exp["stabilizer_dim"], "stabilizer dimension", v)
        if exp["verdict"] == "SemistableNotPolystable":
            require(sorted(v.jh_face) == exp["jh_face"], "Jordan-Holder face", v.jh_face)
        if exp["verdict"] == "Unstable":
            weights = out["x"].weights
            for u in (v, out["destab"]):
                p = tuple(-Fraction(c) for c in u.lam_star)
                require(u.slope_sq == dot(p, p), "slope_sq is not |lam_star|^2", u)
                nearest_point_certificate(weights, p)
                require(p == exp["p"], "destabilizer is not the planted nearest point",
                        p, exp["p"])
        if "flow" in out:
            check_descent(v, out["flow"])


def check_descent(verdict, res) -> None:
    if verdict.verdict == "Unstable":
        require(res.outcome == "Escaped", "descent did not escape from an unstable point", res)
        lam = [float(c) for c in verdict.lam_star]
        norm = math.sqrt(sum(c * c for c in lam))
        cos = sum(a * b / norm for a, b in zip(lam, res.direction))
        angle = math.acos(max(-1.0, min(1.0, cos)))
        require(angle < ESCAPE_ANGLE, "escape direction", angle)
        require(abs(res.slope + math.sqrt(float(verdict.slope_sq))) < ESCAPE_SLOPE,
                "escape slope", res.slope, verdict.slope_sq)
    else:
        require(res.outcome == "Converged", "descent did not converge on a polystable point", res)
        require(res.residual < DESCENT_TOL, "descent residual", res.residual)


# ================================================================ polytopes

def signed_permutation(rng, r: int) -> list:
    perm = list(range(r))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(r)] for i in range(r)]


def matmul(a, b) -> list:
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def transpose(a) -> list:
    return [list(row) for row in zip(*a)]


SHAPES = ("rect", "triangle", "trapezoid", "chopped", "box", "simplex", "prism")


def make_delzant(rng, k: int) -> LatticePolytope:
    """A small smooth polygon or 3-polytope.  Its shape and size follow from
    its catalog index k, so its cost does too; the seed moves it by a signed
    coordinate permutation (after a fixed shear for every third k) and a
    translation, which keep its lattice-point count and bounding box size."""
    shape = SHAPES[k % len(SHAPES)]
    a, b, c = 1 + k % 4, 1 + k % 3, 1 + k % 2
    if shape == "rect":
        ineqs = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -a), ((0, -1), -b)]
        verts = [(0, 0), (a, 0), (0, b), (a, b)]
    elif shape == "triangle":
        ineqs = [((1, 0), 0), ((0, 1), 0), ((-1, -1), -a)]
        verts = [(0, 0), (a, 0), (0, a)]
    elif shape == "trapezoid":  # Hirzebruch: x >= 0, 0 <= y <= b, x + c y <= a + c b
        ineqs = [((1, 0), 0), ((0, 1), 0), ((0, -1), -b), ((-1, -c), -(a + c * b))]
        verts = [(0, 0), (a + c * b, 0), (0, b), (a, b)]
    elif shape == "chopped":  # a rectangle with one corner cut at 45 degrees
        a, b = a + 1, b + 1
        ineqs = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -a), ((0, -1), -b), ((-1, -1), -(a + b - 1))]
        verts = [(0, 0), (a, 0), (0, b), (a, b - 1), (a - 1, b)]
    elif shape == "box":
        ineqs = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                 ((-1, 0, 0), -a), ((0, -1, 0), -b), ((0, 0, -1), -c)]
        verts = list(itertools.product((0, a), (0, b), (0, c)))
    elif shape == "simplex":
        ineqs = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -a)]
        verts = [(0, 0, 0), (a, 0, 0), (0, a, 0), (0, 0, a)]
    else:  # triangle x interval
        ineqs = [((1, 0, 0), 0), ((0, 1, 0), 0), ((-1, -1, 0), -a),
                 ((0, 0, 1), 0), ((0, 0, -1), -c)]
        verts = [(x, y, z) for x, y in ((0, 0), (a, 0), (0, a)) for z in (0, c)]
    r = len(verts[0])
    shear = [[int(i == j or (k % 3 == 0 and (i, j) == (0, 1))) for j in range(r)]
             for i in range(r)]
    unshear = [[-x if i != j else x for j, x in enumerate(row)] for i, row in enumerate(shear)]
    p = signed_permutation(rng, r)
    return LatticePolytope(ineqs, verts, matmul(p, shear), matmul(unshear, transpose(p)),
                           int_vector(rng, r, 2))


def cut_of(poly: LatticePolytope, k: int):
    """The halfspace <n, x> >= level whose normal is (1, ..., 1) in the
    polytope's standard position, at a fixed share of the way across it."""
    ny = [1] * poly.rank
    n = tuple(sum(poly.uinv[j][i] * ny[j] for j in range(poly.rank)) for i in range(poly.rank))
    vals = [dot(n, v) for v in poly.vertices]
    lo, hi = min(vals), max(vals)
    return n, lo + (hi - lo) * Fraction(1 + k % 5, 6)


def eval_point(rng, r: int) -> tuple:
    """Coordinates p/q with every p and q a distinct prime, so no nonzero
    monomial equals 1 there and no denominator of a vertex sum vanishes."""
    primes = rng.sample((2, 3, 5, 7, 11, 13, 17, 19), 2 * r)
    return tuple(Fraction(primes[2 * i], primes[2 * i + 1]) for i in range(r))


def box_probe(rng, lam) -> tuple:
    """A random lattice point with the coordinate sum of lam, in the bounding
    box of lam's permutations widened by 1 on every side, so that only the
    partial-sum inequalities of majorization can reject it (within the box
    itself they never do at rank 3)."""
    lo, hi = min(lam) - 1, max(lam) + 1
    while True:
        head = [rng.randint(lo, hi) for _ in range(len(lam) - 1)]
        last = sum(lam) - sum(head)
        if lo <= last <= hi:
            return tuple(head) + (last,)


class Polytopes(InProcess):
    """Kostant polytopes and characters of dominant weights, plus one small
    Delzant polytope, per operation."""

    # highest weights up to a shift: every (a, b, 0) with 7 >= a >= b, a >= 2
    # but (2, 2, 0), then rank 4 with 4-, 6-, 12- and (for (3, 2, 1, 0))
    # 24-point Weyl orbits; 45 entries (see Stability.CATALOG)
    CATALOG = tuple((a, b, 0) for a in range(2, 8) for b in range(a + 1) if (a, b) != (2, 2)) + (
        (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (2, 0, 0, 0), (2, 1, 0, 0),
        (2, 2, 0, 0), (2, 1, 1, 0), (3, 1, 0, 0), (2, 2, 1, 0), (3, 1, 1, 0),
        (4, 1, 0, 0), (3, 2, 0, 0), (3, 2, 1, 0))
    BOX_POINTS = 6

    def __init__(self):
        from gitkit import characters, localization, polytopes
        self.ch, self.loc, self.po = characters, localization, polytopes

    def round(self, rng) -> list:
        out = []
        for k, base in enumerate(self.CATALOG):
            shift = rng.randint(-5, 5)
            lam = tuple(x + shift for x in base)
            r = len(lam)
            probes = [box_probe(rng, lam) for _ in range(self.BOX_POINTS)]
            d = make_delzant(rng, k)
            out.append({"lam": lam, "probes": probes, "delzant": d,
                         "cut": cut_of(d, k), "z": eval_point(rng, d.rank)})
        rng.shuffle(out)
        return out

    def run(self, op) -> dict:
        ch, loc, po = self.ch, self.loc, self.po
        lam = op["lam"]
        kp = po.kostant_polytope(lam)
        char = ch.weyl_character(lam)
        inside = {mu: kp.contains(mu) for mu in list(char.terms) + op["probes"]}
        _series, expansion = loc.weyl_via_localization(lam)
        p = po.hull(op["delzant"].vertices)
        normal, level = op["cut"]
        cut = po.symplectic_cut(p, normal, level)
        series = loc.vertex_sum(p)
        return {"kostant": kp, "char": char, "inside": inside, "expansion": expansion,
                "delzant": po.is_delzant(p), "fan": po.normal_fan(p),
                "lattice": po.lattice_points(p), "cut": cut,
                "cut_lattice": po.lattice_points(cut.polytope),
                "value": loc.evaluate(series, op["z"])}

    def check(self, op, out) -> None:
        lam, d = op["lam"], op["delzant"]
        require(set(out["kostant"].vertices) == permutations_of(lam), "Kostant vertices", lam)
        for mu, ok in out["inside"].items():
            require(ok == majorized(mu, lam), "contains disagrees with majorization", lam, mu)
        require(all(out["inside"][mu] for mu in out["char"].terms),
                "a character weight lies outside the Kostant polytope", lam)
        dim = weyl_dim(lam)
        require(out["char"].total_coeff_sum() == dim, "character dimension", lam)
        require(out["expansion"].total_coeff_sum() == dim, "localization coefficient sum", lam)

        require(out["delzant"].ok, "a smooth polytope was not reported Delzant", d.vertices)
        vertex_cones = [c for c in out["fan"] if c["face_dim"] == 0]
        require(len(vertex_cones) == len(set(d.vertices)), "vertex cones of the normal fan")
        for c in vertex_cones:
            require(len(c["generators"]) == d.rank and abs(det(c["generators"])) == 1,
                    "vertex cone is not unimodular", c)
        own = d.lattice_points()
        require(out["lattice"] == own, "lattice points", d.vertices)
        normal, level = op["cut"]
        require(out["cut"].kind == "cut", "cut kind", out["cut"].kind)
        require(out["cut_lattice"] == [x for x in own if dot(normal, x) >= level],
                "lattice points of the cut", d.vertices, normal, level)
        require(out["value"] == monomial_sum(own, op["z"]), "vertex sum value", d.vertices)


# ================================================================ horn

def decreasing(rng, r: int, lo: int, hi: int) -> tuple:
    return tuple(sorted((rng.randint(lo, hi) for _ in range(r)), reverse=True))


def hermitian(rng, r: int) -> list:
    """A Gaussian Hermitian matrix as nested lists of complex numbers."""
    m = [[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(r)] for _ in range(r)]
    return [[(m[i][j] + m[j][i].conjugate()) / 2 for j in range(r)] for i in range(r)]


def lr_triple(rng, rows: int, cols: int) -> tuple:
    """Random partitions lambda and mu in the rows x cols box, each of about
    a third of its area, and a random nu of size |lambda| + |mu| in the box
    that contains both, where c^nu_{lambda mu} can be nonzero (any nu of that
    size if none does)."""
    size = max(1, rows * cols // 3)
    lam = rng.choice(partitions_in_box(rows, cols, size))
    mu = rng.choice(partitions_in_box(rows, cols, size))
    nus = partitions_in_box(rows, cols, 2 * size)
    around = [nu for nu in nus if all(x >= max(a, b) for x, a, b in zip(nu, lam, mu))]
    return lam, mu, rng.choice(around or nus)


class Horn(InProcess):
    """Exact Horn checks, one LR coefficient two ways, and a small Monte Carlo
    batch of Jacobi spectra, per operation."""

    # (r, s): matrix size and the Grassmannian Gr(s, r) of the LR coefficient;
    # Gr(3, 6) twice, for 15 entries (see Stability.CATALOG)
    CATALOG = tuple((r, s) for r in (3, 4, 5, 6) for s in range(1, r)) + ((6, 3),)

    def __init__(self):
        from gitkit import characters, horn, puzzles
        self.ch, self.horn, self.pz = characters, horn, puzzles

    def round(self, rng) -> list:
        out = []
        for k, (r, s) in enumerate(self.CATALOG):
            a, b = decreasing(rng, r, -6, 6), decreasing(rng, r, -6, 6)
            c = tuple(sorted((x + y for x, y in zip(a, b)), reverse=True))
            broken = (c[0] + rng.randint(1, 3),) + c[1:]
            lam, mu, nu = lr_triple(rng, s, r - s)
            out.append({"r": r, "a": a, "b": b, "c": c, "broken": broken, "s": s,
                        "lam": lam, "mu": mu, "nu": nu,
                        "matrix": hermitian(rng, r), "sample_r": min(r, 4),
                        "trials": 2 + 3 * k % 7, "sample_seed": rng.randrange(2 ** 31)})
        rng.shuffle(out)
        return out

    def run(self, op) -> dict:
        hn, pz = self.horn, self.pz
        r, s = op["r"], op["s"]
        return {
            "commuting": hn.check_triple(op["a"], op["b"], op["c"]),
            "broken": hn.check_triple(op["a"], op["b"], op["broken"]),
            "lr": pz.lr_coefficient(r, s, op["lam"], op["mu"], op["nu"]),
            "lr_swapped": pz.lr_coefficient(r, s, op["mu"], op["lam"], op["nu"]),
            "decomp": self.ch.tensor_decompose(op["lam"], op["mu"]),
            "eig": hn.jacobi_eigenvalues(op["matrix"]),
            "sample": hn.sample_hermitian_validate(op["sample_r"], trials=op["trials"],
                                                   seed=op["sample_seed"]),
        }

    def check(self, op, out) -> None:
        import numpy

        require(out["commuting"].feasible, "a commuting sum was reported infeasible",
                op["a"], op["b"], op["c"], out["commuting"])
        br = out["broken"]
        require(not br.feasible and br.violated == ("trace",), "broken trace not reported", br)
        decomp = out["decomp"]
        require(sum(weyl_dim(nu) * m for nu, m in decomp.items())
                == weyl_dim(op["lam"]) * weyl_dim(op["mu"]), "tensor dimensions", op["lam"], op["mu"])
        nu = op["nu"]
        require(out["lr"] == out["lr_swapped"], "LR coefficient is not symmetric", out["lr"],
                out["lr_swapped"])
        require(out["lr"] == decomp.get(nu, 0), "puzzles disagree with characters",
                op["lam"], op["mu"], nu, out["lr"], decomp.get(nu, 0))
        ref = sorted(numpy.linalg.eigvalsh(numpy.array(op["matrix"])).tolist(), reverse=True)
        err = max(abs(x - y) for x, y in zip(out["eig"], ref))
        require(len(out["eig"]) == op["r"] and err < 1e-9, "Jacobi spectrum", err)
        require(out["sample"].violations == 0 and out["sample"].trials == op["trials"],
                "sampled Horn violation", out["sample"])


# ================================================================ cli

CLI_CALL = "import sys; from gitkit.cli import main; sys.exit(main())"


def csv(v) -> str:
    return ",".join(str(x) for x in v)


def fmt(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


class Cli:
    """One fresh `gitkit <group> <op>` process per operation, one at a time.

    The calls cycle through one exact operation of each group on small
    inputs; each answer is known in advance without gitkit."""

    GROUPS = ("lie", "char", "puzzles", "horn", "polytope", "stability", "localize")
    rusage_who = resource.RUSAGE_CHILDREN
    slowness = staticmethod(start_slowness)

    def __init__(self, root: str):
        self.root = root
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        self.env = env

    def argv_of(self, op) -> list:
        return [sys.executable, "-c", CLI_CALL] + op["args"]

    def setup(self) -> None:
        """One untimed call, which warms the file cache."""
        op = {"group": "lie", "args": ["lie", "rho", "--r", "3"], "expect": ("rho", 3)}
        self.check(op, self.run(op))

    def round(self, rng) -> list:
        out = []
        for g in self.GROUPS:
            if g == "lie":
                r = rng.randint(2, 7)
                out.append({"group": g, "args": ["lie", "rho", "--r", str(r)], "expect": ("rho", r)})
            elif g == "char":
                lam = decreasing(rng, rng.randint(2, 3), 0, 4)
                out.append({"group": g, "args": ["char", "weyl", "--lambda", csv(lam)],
                            "expect": ("dim", lam)})
            elif g == "puzzles":
                r = rng.randint(3, 7)
                i, j = rng.randint(1, r), rng.randint(1, r)
                k = i + j - r if rng.random() < 0.7 and 1 <= i + j - r else rng.randint(1, r)
                out.append({"group": g, "args": ["puzzles", "count", "--r", str(r), "--I", str(i),
                                                 "--J", str(j), "--K", str(k)],
                            "expect": ("pieri", r, i, j, k)})
            elif g == "horn":
                r = rng.randint(2, 4)
                a, b = decreasing(rng, r, -5, 5), decreasing(rng, r, -5, 5)
                c = tuple(x + y for x, y in zip(a, b))
                out.append({"group": g, "args": ["horn", "check", "--a", csv(a), "--b", csv(b),
                                                 "--c", csv(c)], "expect": ("feasible",)})
            elif g == "polytope":
                lam = decreasing(rng, rng.randint(2, 3), -3, 4)
                out.append({"group": g, "args": ["polytope", "kostant", "--lambda", csv(lam)],
                            "expect": ("perms", lam)})
            elif g == "stability":
                kind = rng.choice(Stability.KINDS)
                pt = make_stability_point(rng, kind, rng.randint(2, 3), rng.randint(4, 6))
                out.append({"group": g, "args": [
                    "stability", "classify",
                    "--weights", ";".join(",".join(fmt(c) for c in w) for w in pt["weights"]),
                    "--masses", ",".join(fmt(m) for m in pt["masses"])],
                    "expect": ("verdict", pt["expect"])})
            else:
                lam = decreasing(rng, rng.randint(2, 3), 0, 3)
                out.append({"group": g, "args": ["localize", "weyl", "--lambda", csv(lam)],
                            "expect": ("dim", lam)})
        rng.shuffle(out)
        return out

    def run(self, op) -> dict:
        res = subprocess.run(self.argv_of(op), capture_output=True, text=True,
                             env=self.env, cwd=self.root, timeout=60)
        return {"code": res.returncode, "stdout": res.stdout, "stderr": res.stderr}

    def run_traced(self, op, tracer) -> dict:
        """The same call three ways: a timed child with -X importtime, then
        build_parser() and main(argv) in this process."""
        from gitkit import cli
        from tracing import importtime_ms

        argv = self.argv_of(op)
        res = subprocess.run([argv[0], "-X", "importtime"] + argv[1:], capture_output=True,
                             text=True, env=self.env, cwd=self.root, timeout=60)
        imports = importtime_ms(res.stderr)
        t0 = time.perf_counter()
        cli.build_parser()
        t1 = time.perf_counter()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(op["args"])
        t2 = time.perf_counter()
        tracer.cli_samples.append({
            "import_gitkit_ms": imports.get("gitkit", float("nan")),
            "import_numpy_ms": imports.get("numpy", float("nan")),
            "build_parser_ms": (t1 - t0) * 1e3, "main_ms": (t2 - t1) * 1e3})
        if code != res.returncode or buf.getvalue() != res.stdout:
            raise CheckFailed(f"in-process main differs from the child process: {op['args']}")
        return {"code": res.returncode, "stdout": res.stdout, "stderr": ""}

    def check(self, op, out) -> None:
        require(out["code"] == 0, "gitkit exited nonzero", op["args"], out["stderr"][-300:])
        lines = out["stdout"].splitlines()
        require(len(lines) == 1, "expected one line of JSON", out["stdout"][:200])
        got = json.loads(lines[0])
        check_cli_answer(op["expect"], got)


def check_cli_answer(expect, got) -> None:
    kind = expect[0]
    if kind == "rho":
        require(got == {"rho": [str(x) for x in rho(expect[1])]}, "rho", got)
    elif kind == "dim":
        require(got["dim"] == weyl_dim(expect[1]), "dimension", expect[1], got["dim"])
        require(sum(t["c"] for t in got["character"]) == got["dim"], "character sum", got["dim"])
    elif kind == "pieri":
        require(got == {"count": pieri_one_box(*expect[1:])}, "Pieri count", expect, got)
    elif kind == "feasible":
        require(got == {"feasible": True}, "commuting sum", got)
    elif kind == "perms":
        verts = {tuple(int(c) for c in v) for v in got["vertices"]}
        require(verts == permutations_of(expect[1]), "Kostant vertices", expect[1], got)
    elif kind == "verdict":
        exp = expect[1]
        require(got["verdict"] == exp["verdict"], "verdict", exp["verdict"], got)
        if exp["verdict"] == "Unstable":
            p = tuple(-Fraction(c) for c in got["lam_star"])
            require(p == exp["p"] and Fraction(got["slope_sq"]) == dot(p, p),
                    "destabilizer", exp["p"], got)
        elif exp["verdict"] == "Polystable":
            require(got["stabilizer_dim"] == exp["stabilizer_dim"], "stabilizer dimension", got)
        elif exp["verdict"] == "SemistableNotPolystable":
            face = sorted(tuple(Fraction(c) for c in w) for w in got["jh_face"])
            require(face == exp["jh_face"], "Jordan-Holder face", got)
    else:
        raise CheckFailed(f"unknown expectation {kind!r}")


def make(name: str, root: str):
    if name == "stability":
        return Stability()
    if name == "polytopes":
        return Polytopes()
    if name == "horn":
        return Horn()
    if name == "cli":
        return Cli(root)
    raise ValueError(f"unknown workload {name!r}")

