"""Worked examples wired into one regression table.

Each case recomputes a small closed-form fact through the public API and
fails loudly on any mismatch.  `run_all` keeps stdout deterministic (names,
statuses, exact values); wall-clock timings go to stderr.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

from . import characters, horn, localization, polytopes, puzzles, stability
from .lie import GitkitError, weight_to_json


def _expect(ok: bool, *got) -> None:
    """Fail the case unless `ok`.  An explicit check, not an assert, so the
    table still fails under python -O."""
    if not ok:
        raise GitkitError("example_failed",
                          "check failed: " + ", ".join(repr(g) for g in got), {})


def _case_su2_string():
    poly = characters.weyl_character((3, 0))
    want = {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1}
    _expect(poly.terms == want, poly.terms)
    return "spin 3/2 weight string 3,1,-1,-3"


def _case_standard_times_dual():
    out = characters.tensor_decompose((1, 0), (0, -1))
    _expect(out == {(1, -1): 1, (0, 0): 1}, out)
    return "V(1,0) x V(0,-1) = adjoint + trivial"


def _case_triangle_sides():
    a = horn.polygon_nonempty(("1", "1", "1"))
    b = horn.polygon_nonempty(("3", "1", "1"))
    c = horn.polygon_nonempty(("2", "1", "1"))
    _expect((a, b, c) == (True, False, True), (a, b, c))
    return "sides 1,1,1 ok; 3,1,1 impossible; 2,1,1 degenerate ok"


def _case_puzzle_247():
    n = puzzles.count_puzzles(4, (2, 4), (2, 4), (2, 3))
    _expect(n == 1, n)
    fills = puzzles.enumerate_puzzles(4, (2, 4), (2, 4), (2, 3))
    _expect(len(fills) == 1)
    ok, reason = puzzles.check_filling(4, (2, 4), (2, 4), (2, 3), fills[0])
    _expect(ok, reason)
    return "unique filling, checker agrees"


def _case_smallest_eigenvalue():
    sys3 = horn.generate_horn_system(3, "all-positive")
    keys = {(i, j, k) for i, j, k, _n in sys3.triples}
    _expect(((3,), (3,), (3,)) in keys)
    return "bottom eigenvalues superadditive at r=3"


def _case_cstar_plane():
    table = {
        ((1,),): "Unstable",
        ((0,),): "Polystable",
        ((-1,),): "Unstable",
        ((1,), (0,)): "SemistableNotPolystable",
        ((0,), (-1,)): "SemistableNotPolystable",
        ((1,), (-1,)): "Stable",
        ((1,), (0,), (-1,)): "Stable",
    }
    for weights, want in table.items():
        x = stability.proj_point(list(weights))
        got = stability.classify_stability(x).verdict
        _expect(got == want, (weights, got, want))
    return "all 7 coordinate supports classified"


_KIRWAN = [(Fraction(-1, 4), Fraction(-1, 4)), (Fraction(3, 4), Fraction(-1, 4)),
           (Fraction(-1, 4), Fraction(3, 4))]


def _case_kirwan_types():
    types = stability.critical_types(_KIRWAN)
    want = {
        (0, 0),
        (Fraction(-1, 4), 0), (0, Fraction(-1, 4)),
        (Fraction(1, 4), Fraction(1, 4)),
        (Fraction(-1, 4), Fraction(-1, 4)),
        (Fraction(3, 4), Fraction(-1, 4)), (Fraction(-1, 4), Fraction(3, 4)),
    }
    _expect(types == want, types)
    return "7 critical types"


def _case_kirwan_center():
    x = stability.proj_point(_KIRWAN)
    mm = stability.moment_map(x)
    _expect(mm == (Fraction(1, 12), Fraction(1, 12)), mm)
    return "equal-mass moment value (1/12, 1/12)"


def _case_kostant_segment():
    p = polytopes.kostant_polytope((3, 0))
    _expect(p.vertices == ((0, 3), (3, 0)), p.vertices)
    pts = polytopes.lattice_points(p)
    _expect(len(pts) == 4, pts)
    return "orbit hull is a segment with 4 lattice points"


def _case_corner_cut():
    p = polytopes.hull([(0, 0), (2, 0), (0, 2)])
    res = polytopes.symplectic_cut(p, (-1, 0), -1)
    _expect(res.kind == "cut")
    _expect(res.polytope.vertices == ((0, 0), (0, 2), (1, 0), (1, 1)), res.polytope.vertices)
    return "triangle cut at x=1 leaves a trapezoid"


def _case_plane_fan():
    p = polytopes.hull([(0, 0), (1, 0), (0, 1)])
    fan = polytopes.normal_fan(p)
    vertex_cones = {tuple(c["generators"]) for c in fan if c["face_dim"] == 0}
    want = {((-1, 0), (0, -1)), ((0, -1), (1, 1)), ((-1, 0), (1, 1))}
    _expect(vertex_cones == want, vertex_cones)
    return "vertex cones use rays (1,1), (-1,0), (0,-1)"


def _case_plane_sections():
    d = 1
    simplex = polytopes.hull([(0, 0), (d, 0), (0, d)])
    series = localization.vertex_sum(simplex)
    val = localization.evaluate(series, ("2", "3"))
    brute = sum(Fraction(2) ** a * Fraction(3) ** b
                for a, b in polytopes.lattice_points(simplex))
    _expect(val == brute == 6, (val, brute))
    return "degree-1 sections on the plane evaluate to 6 at (2,3)"


def _case_p1_pairing():
    rep = localization.p1_kn_identity(3)
    _expect(rep.passed)
    _expect(rep.expansion.terms == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1})
    return "comb bookkeeping reproduces the d=3 string"


def _case_blowup_sections():
    series, rep = localization.blowup_chi(3, 1)
    _expect(rep.chi == 9, rep.chi)
    _expect(rep.h1 == (), rep.h1)
    val = localization.evaluate(series, ("2", "3"))
    _expect(val == 89, val)
    return "chi = 9 sections, value 89 at (2,3)"


def _case_line_bundle_cohomology():
    _expect(characters.bwb_cohomology((2, 0)) == (0, (2, 0)))
    _expect(characters.bwb_cohomology((-1, 0)) is None)
    _expect(characters.bwb_cohomology((-4, 0)) == (1, (-1, -3)))
    return "H0 for degree 2, vanishing at -1, H1 dual for -4"


def _case_macdonald_support():
    out = characters.tensor_decompose((2, 0), (2, 0))
    _expect(out == {(4, 0): 1, (3, 1): 1, (2, 2): 1}, out)
    return "multiplicity-free interlacing support"


def _case_segment_series():
    p = polytopes.hull([(0,), (2,)])
    series = localization.vertex_sum(p)
    exp = localization.expand_in_box(series, ((0, 2),))
    _expect(exp.terms == {(0,): 1, (1,): 1, (2,): 1}, exp.terms)
    _expect(localization.evaluate(series, ("2",)) == 7)
    return "segment [0,2] expands to 1 + t + t^2"


CASES = [
    ("su2-string", _case_su2_string),
    ("standard-times-dual", _case_standard_times_dual),
    ("triangle-sides", _case_triangle_sides),
    ("puzzle-247", _case_puzzle_247),
    ("smallest-eigenvalue", _case_smallest_eigenvalue),
    ("cstar-plane", _case_cstar_plane),
    ("kirwan-types", _case_kirwan_types),
    ("kirwan-center", _case_kirwan_center),
    ("kostant-segment", _case_kostant_segment),
    ("corner-cut", _case_corner_cut),
    ("plane-fan", _case_plane_fan),
    ("plane-sections", _case_plane_sections),
    ("p1-pairing", _case_p1_pairing),
    ("blowup-sections", _case_blowup_sections),
    ("line-bundle-cohomology", _case_line_bundle_cohomology),
    ("macdonald-support", _case_macdonald_support),
    ("segment-series", _case_segment_series),
]


def run_all():
    rows = []
    all_ok = True
    for name, fn in CASES:
        t0 = time.monotonic()
        try:
            detail = fn()
            status = "PASS"
        except Exception as exc:  # report and keep going
            detail = f"{type(exc).__name__}: {exc}"
            status = "FAIL"
            all_ok = False
        ms = (time.monotonic() - t0) * 1000.0
        print(f"{name}: {ms:.1f} ms", file=sys.stderr)
        rows.append((name, status, detail))
    return rows, all_ok
