# Compare the exact stability classification of random torus orbits with
# the outcome of gradient descent on the Kempf-Ness function.  For every
# trial the two routes must agree: semistable points converge to a zero of
# the moment map, unstable points escape along the optimal destabilizer.

import argparse
import math
import random
import sys
from fractions import Fraction

from gitkit.stability import (
    Converged,
    Escaped,
    classify_stability,
    minimize_kempf_ness,
    proj_point,
)


def random_orbit(rng, max_rank):
    r = rng.randint(1, max_rank)
    m = rng.randint(2, 8)
    weights = [tuple(Fraction(rng.randint(-1500, 1500), 1000)
                     for _ in range(r)) for _ in range(m)]
    masses = [Fraction(rng.randint(1, 2000), 1000) for _ in range(m)]
    return proj_point(weights, masses)


def angle_to(lam_star, direction):
    lam = [float(v) for v in lam_star]
    norm = math.sqrt(sum(v * v for v in lam))
    dot = sum(a * b / norm for a, b in zip(lam, direction))
    return math.acos(max(-1.0, min(1.0, dot)))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=40)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--max-rank", type=int, default=3)
    ap.add_argument("--tol", type=float, default=1e-6)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    counts = {"Stable": 0, "Polystable": 0,
              "SemistableNotPolystable": 0, "Unstable": 0}
    worst_angle = 0.0
    worst_slope = 0.0
    worst_residual = 0.0
    for k in range(args.trials):
        x = random_orbit(rng, args.max_rank)
        verdict = classify_stability(x)
        counts[verdict.verdict] += 1
        res = minimize_kempf_ness(x, tol=args.tol, max_iter=10 ** 5)
        if not isinstance(res, Escaped if verdict.verdict == "Unstable" else Converged):
            sys.exit(f"trial {k}: descent gave {res} on {verdict}")
        if verdict.verdict == "Unstable":
            ang = angle_to(verdict.lam_star, res.direction)
            worst_angle = max(worst_angle, ang)
            worst_slope = max(worst_slope, abs(res.slope - verdict.slope))
            line = (f"escaped  slope {res.slope:+.6f}"
                    f"  angle to lam* {ang:.2e}")
        else:
            worst_residual = max(worst_residual, res.residual)
            line = (f"converged in {res.iterations} steps"
                    f"  |moment| {res.residual:.2e}")
        print(f"trial {k:3d}  {verdict.verdict:<24} {line}")

    print()
    print("verdict counts:", counts)
    print(f"worst converged residual: {worst_residual:.3e}")
    print(f"worst escape angle:       {worst_angle:.3e}")
    print(f"worst slope mismatch:     {worst_slope:.3e}")
    print("exact classification and descent agreed on every trial")


if __name__ == "__main__":
    main()
