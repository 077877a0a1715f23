"""Tests for fixed-point cone series: rational identities vs box expansions."""

import itertools
import math
from fractions import Fraction
from operator import add, mul

import pytest
from hypothesis import given, settings, strategies as st

from gitkit import localization
from gitkit.characters import LaurentPoly, positive_roots, weyl_alternant, weyl_character
from gitkit.lie import GitkitError, fmt_rat, rat, wadd, wdot, weyl_orbit
from gitkit.localization import (
    ConeSeries,
    Term,
    blowup_chi,
    evaluate,
    expand_in_box,
    p1_chi,
    p1_kn_identity,
    rational_eq,
    rational_sum,
    vertex_sum,
    weyl_via_localization,
)
from gitkit.polytopes import Polytope, _frame_index, hull, lattice_points


def char_series(poly):
    """Wrap a Laurent polynomial as a denominator-free one-term series."""
    return ConeSeries((Term(poly, (), tuple(Fraction(1) for _ in range(poly.rank))),))


def string_poly(d):
    return LaurentPoly(1, {(d - 2 * k,): 1 for k in range(d + 1)})


def test_term_rejects_zero_denominator_exponent():
    with pytest.raises(GitkitError) as exc:
        Term(LaurentPoly.monomial((0,), 1), ((0,),), (Fraction(1),))
    assert exc.value.code == "bad_term"


def test_term_rejects_nonnegative_pairing():
    with pytest.raises(GitkitError) as exc:
        Term(LaurentPoly.monomial((0,), 1), ((2,),), (Fraction(1),))
    assert exc.value.code == "bad_direction"
    # orthogonal pairing is rejected too, termwise expansion needs < 0
    with pytest.raises(GitkitError) as exc:
        Term(LaurentPoly.monomial((0, 0), 1), ((1, 0),), (Fraction(0), Fraction(1)))
    assert exc.value.code == "bad_direction"


def test_term_rejects_rank_mismatch():
    with pytest.raises(GitkitError) as exc:
        Term(LaurentPoly.monomial((0,), 1), ((-2,),), (Fraction(1), Fraction(2)))
    assert exc.value.code == "rank_mismatch"
    with pytest.raises(GitkitError) as exc:
        Term(LaurentPoly.monomial((0,), 1), ((-2, 1),), (Fraction(1),))
    assert exc.value.code == "rank_mismatch"


@pytest.mark.parametrize("build, code, message, context", [
    (lambda: Term(LaurentPoly.one(1), ((-2,),), (1, 2)), "rank_mismatch",
     "direction length does not match rank", {"rank": 1, "dir": 2}),
    (lambda: Term(LaurentPoly.one(1), ((-2, 1),), (1,)), "rank_mismatch",
     "denominator exponent length mismatch", {"rank": 1, "exponent": [-2, 1]}),
    (lambda: Term(LaurentPoly.one(2), ((0, 0),), (1, 1)), "bad_term",
     "denominator exponent must be nonzero", {}),
    (lambda: Term(LaurentPoly.one(2), ((1, -1),), (1, 1)), "bad_direction",
     "expansion direction must pair negatively with every denominator exponent",
     {"exponent": [1, -1]}),
    (lambda: Term(LaurentPoly.one(2), ((Fraction(-3, 2), 0),), (1, 1)), "not_integral",
     "denominator exponents must be integers", {"exponent": ["-3/2", "0"]}),
    (lambda: Term(LaurentPoly.one(2), ((-1.9, 0),), (1, 1)), "not_integral",
     "denominator exponents must be integers", {"exponent": ["-1.9", "0"]}),
    (lambda: Term(LaurentPoly.one(2), ((-1, True),), (-1, 0)), "not_integral",
     "denominator exponents must be integers", {"exponent": ["-1", "True"]}),
    (lambda: LaurentPoly(2, {(1,): 1}), "rank_mismatch",
     "exponent length does not match rank", {"rank": 2, "exponent": [1]}),
    (lambda: LaurentPoly(1, {(Fraction(1, 2),): 1}), "not_integral",
     "Laurent exponents must be integers", {"exponent": ["1/2"]}),
    (lambda: LaurentPoly(1, {(1,): Fraction(1, 2)}), "not_integral",
     "Laurent coefficients must be integers", {"coefficient": "1/2"}),
    # a zero coefficient is checked too before it is dropped
    (lambda: LaurentPoly(2, {(1,): 0}), "rank_mismatch",
     "exponent length does not match rank", {"rank": 2, "exponent": [1]}),
    (lambda: LaurentPoly(1, {(Fraction(1, 2),): 0}), "not_integral",
     "Laurent exponents must be integers", {"exponent": ["1/2"]}),
    (lambda: ConeSeries.from_json([{"num": [{"w": [1, 0], "c": 1}, {"w": [1], "c": 0}],
                                    "den": [], "dir": ["1", "1"]}]), "rank_mismatch",
     "exponent length does not match rank", {"rank": 2, "exponent": [1]}),
    (lambda: ConeSeries((Term(LaurentPoly.one(2), (), (1, 1)), Term(LaurentPoly.one(1), (), (1,)))),
     "rank_mismatch", "series terms have different ranks", {"ranks": [1, 2]}),
    (lambda: p1_chi(1) + ConeSeries((Term(LaurentPoly.one(2), (), (1, 1)),)),
     "rank_mismatch", "series terms have different ranks", {"ranks": [1, 2]}),
], ids=["term-dir-rank", "term-den-rank", "term-zero-den", "term-direction",
        "term-den-fraction", "term-den-float", "term-den-bool", "poly-rank",
        "poly-exponent", "poly-coefficient", "poly-zero-rank", "poly-zero-exponent",
        "series-zero-rank", "series-mixed-rank", "series-sum-mixed-rank"])
def test_public_constructors_check_what_internal_builders_skip(build, code, message, context):
    with pytest.raises(GitkitError) as exc:
        build()
    assert (exc.value.code, exc.value.message, exc.value.context) == (code, message, context)


def test_public_constructors_canonicalize_integral_values():
    t = Term(LaurentPoly(2, {(1, 0): 2, (Fraction(2), 1.0): 1, (0, 0): 0}),
             ((Fraction(-2), -1.0),), (Fraction(1), "1"))
    assert repr(t) == repr(Term(LaurentPoly(2, {(1, 0): 2, (2, 1): 1}), ((-2, -1),), (1, 1)))
    assert [type(x) for x in t.den[0] + t.dir] == [int] * 4
    assert list(t.num.terms) == [(1, 0), (2, 1)]


def test_empty_series_has_no_rank():
    with pytest.raises(GitkitError) as exc:
        ConeSeries(()).rank
    assert exc.value.code == "bad_series"


def test_series_add_and_scale():
    s = p1_chi(2)
    assert rational_eq(s + s, s.scale(2))
    pt = ("3",)
    assert evaluate(s.scale(-1), pt) == -evaluate(s, pt)
    assert evaluate(s + s, pt) == 2 * evaluate(s, pt)


def test_series_json_roundtrip():
    s = p1_chi(3)
    back = ConeSeries.from_json(s.to_json())
    assert back == s
    assert evaluate(back, ("5",)) == evaluate(s, ("5",))


@pytest.mark.parametrize("arr", [
    [{"num": 5, "den": [], "dir": ["1"]}],
    [{"num": [{"w": [1], "c": 1}], "den": [[1.5]], "dir": ["-1"]}],
    [{"num": [{"w": [1], "c": 1}], "den": [["-1"]], "dir": ["1"]}],
    [{"num": [{"w": [1], "c": 1}], "den": [[True]], "dir": ["-1"]}],
    [{"num": [{"w": [1], "c": 1}], "den": 1, "dir": ["1"]}],
    [{"num": [{"w": [1], "c": 1}], "den": [], "dir": 1}],
])
def test_series_from_json_rejects_bad_terms(arr):
    with pytest.raises(GitkitError) as exc:
        ConeSeries.from_json(arr)
    assert exc.value.code == "bad_input"


def test_evaluate_pinned_values():
    s = vertex_sum(hull([(0,), (2,)]))
    assert evaluate(s, ("2",)) == 7
    assert evaluate(s, ("1/3",)) == Fraction(13, 9)
    assert evaluate(p1_chi(3), ("2",)) == Fraction(85, 8)


def test_evaluate_pole_detection():
    with pytest.raises(GitkitError) as exc:
        evaluate(p1_chi(1), ("1",))
    assert exc.value.code == "pole"
    # zero base with a negative exponent is a pole as well
    with pytest.raises(GitkitError) as exc:
        evaluate(p1_chi(1), ("0",))
    assert exc.value.code == "pole"


def test_rational_sum_flips_to_lex_positive():
    s = ConeSeries((Term(LaurentPoly.monomial((0,), 1), ((-1,),), (Fraction(1),)),))
    num, den = rational_sum(s)
    # 1/(1 - t^-1) = -t/(1 - t)
    assert num.terms == {(1,): -1}
    assert den == ((1,),)


def test_comb_pair_vanishes_rationally():
    # z^d/(1-z^2) expanded downward plus z^(d-2)/(1-z^-2) expanded upward
    # cancel as rational functions for every d
    for d in (0, 1, 4):
        comb = ConeSeries((
            Term(LaurentPoly.monomial((d,), 1), ((2,),), (Fraction(-1),)),
            Term(LaurentPoly.monomial((d - 2,), 1), ((-2,),), (Fraction(1),)),
        ))
        num, _ = rational_sum(comb)
        assert num.is_zero()
        assert rational_eq(comb, comb.scale(0))


def test_rational_route_vs_box_route_differ():
    # the two-term fixed-point sum equals the string rationally, but its box
    # expansion doubles the interior of the comb because each term expands in
    # its own direction
    s = p1_chi(1)
    assert rational_eq(s, char_series(string_poly(1)))
    exp = expand_in_box(s, ((-3, 3),))
    assert exp.terms == {(-3,): 1, (-1,): 2, (1,): 2, (3,): 1}


def test_p1_chi_matches_string_rationally():
    for d in (0, 1, 3, 5):
        assert rational_eq(p1_chi(d), char_series(string_poly(d)))


def test_p1_duality():
    for n in range(2, 7):
        assert rational_eq(p1_chi(-n), p1_chi(n - 2).scale(-1))


def test_p1_pairing_identity():
    for d in (0, 1, 2, 5):
        rep = p1_kn_identity(d)
        assert rep.passed
        assert rep.box == ((-(d + 6), d + 6),)
        assert rep.expansion == string_poly(d)
    rep = p1_kn_identity(3)
    assert rep.expansion.terms == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}


def test_p1_pairing_rejects_bad_degree():
    for d in (-1, 51):
        with pytest.raises(GitkitError) as exc:
            p1_kn_identity(d)
        assert exc.value.code == "bad_input"


def test_expand_in_box_errors():
    s = p1_chi(1)
    with pytest.raises(GitkitError) as exc:
        expand_in_box(s, ((-1, 1), (-1, 1)))
    assert exc.value.code == "rank_mismatch"
    with pytest.raises(GitkitError) as exc:
        expand_in_box(s, ((2, -2),))
    assert exc.value.code == "bad_box"


@pytest.mark.parametrize("box", [
    ((1.5, 2),), ((Fraction(3, 2), 2),), ((True, 2),), ((0, "2"),), ((None, 2),),
    (3,), ((0,),), ((0, 1, 2),), "0:2", None,
])
def test_expand_in_box_refuses_malformed_box(box):
    # a bound of 1.5 was truncated to 1, so t^1 came back from [1.5, 2]
    with pytest.raises(GitkitError) as exc:
        expand_in_box(vertex_sum(hull([(0,), (2,)])), box)
    assert exc.value.code == "bad_box"


def test_expand_in_box_accepts_lists_of_pairs():
    s = vertex_sum(hull([(0,), (2,)]))
    assert expand_in_box(s, [[1, 2]]).terms == expand_in_box(s, ((1, 2),)).terms == {
        (1,): 1, (2,): 1}


def test_expand_in_box_caps_box_points():
    one = ConeSeries((Term(LaurentPoly.one(2), (), (Fraction(1), Fraction(1))),))
    # 1000 x 1000 box points: exactly at the cap
    assert expand_in_box(one, ((-499, 500), (0, 999))) == LaurentPoly.one(2)
    with pytest.raises(GitkitError) as exc:
        expand_in_box(one, ((-500, 500), (0, 999)))
    assert exc.value.code == "too_large"
    assert exc.value.context == {"points": 1001000, "cap": 1000000}


def test_vertex_sum_single_point():
    s = vertex_sum(hull([(1, 2)]))
    assert len(s.terms) == 1 and s.terms[0].den == ()
    assert evaluate(s, ("2", "3")) == 18


def test_vertex_sum_segment():
    s = vertex_sum(hull([(0,), (2,)]))
    exp = expand_in_box(s, ((0, 2),))
    assert exp.terms == {(0,): 1, (1,): 1, (2,): 1}
    # widening the box must not pick up spurious monomials
    wide = expand_in_box(s, ((-4, 6),))
    assert wide.terms == exp.terms


def test_vertex_sum_plane_sections():
    simplex = hull([(0, 0), (1, 0), (0, 1)])
    s = vertex_sum(simplex)
    assert evaluate(s, ("2", "3")) == 6
    exp = expand_in_box(s, ((-1, 2), (-1, 2)))
    assert exp.terms == {(0, 0): 1, (1, 0): 1, (0, 1): 1}


@pytest.mark.parametrize("pts", [
    [(0, 0), (2, 0), (0, 2)],
    [(0, 0), (1, 0), (1, 1), (0, 1)],
    [(0, 0), (3, 0), (3, 1), (0, 4)],
    [(-1, -1), (2, -1), (2, 2), (-1, 2)],
])
def test_vertex_sum_reproduces_lattice_indicator(pts):
    p = hull(pts)
    s = vertex_sum(p)
    grid = [tuple(int(x) for x in w) for w in lattice_points(p)]
    val = evaluate(s, ("2", "3"))
    brute = sum(Fraction(2) ** a * Fraction(3) ** b for a, b in grid)
    assert val == brute
    box = tuple((int(lo) - 1, int(hi) + 1) for lo, hi in p.bounding_box())
    assert expand_in_box(s, box) == LaurentPoly(2, {w: 1 for w in grid})


def test_vertex_sum_lower_dimensional_polytope():
    s = vertex_sum(hull([(0, 0), (2, 0)]))
    assert evaluate(s, ("2", "5")) == 7
    exp = expand_in_box(s, ((-1, 3), (-1, 1)))
    assert exp.terms == {(0, 0): 1, (1, 0): 1, (2, 0): 1}


def test_vertex_sum_rejects_bad_input():
    with pytest.raises(GitkitError) as exc:
        vertex_sum(hull([(Fraction(1, 2),), (2,)]))
    assert exc.value.code == "not_lattice"
    with pytest.raises(GitkitError) as exc:
        vertex_sum(hull([(0, 0), (2, 0), (0, 1)]))
    assert exc.value.code == "not_smooth"
    with pytest.raises(GitkitError) as exc:
        vertex_sum(hull([(0, 0, 0, 0, 0), (1, 0, 0, 0, 0)]))
    assert exc.value.code == "rank_too_large"


def test_vertex_sum_rejects_non_simple_vertex():
    pyramid = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    with pytest.raises(GitkitError) as exc:
        vertex_sum(pyramid)
    assert exc.value.code == "not_smooth"


@pytest.mark.parametrize("pts, message, context", [
    ([(0, 0), (2, 0), (0, 1)], "edge frame is not unimodular", {"vertex": ["0", "1"]}),
    ([(0, 0, 0), (2, 0, 0), (0, 1, 0)], "edge frame is not unimodular in its span",
     {"vertex": ["0", "1", "0"]}),
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)],
     "vertex does not have dim-many edges", {"vertex": ["0", "0", "1"], "edges": 4}),
])
def test_vertex_sum_not_smooth_reports(pts, message, context):
    with pytest.raises(GitkitError) as exc:
        vertex_sum(hull(pts))
    assert (exc.value.code, exc.value.message, exc.value.context) == (
        "not_smooth", message, context)


def test_blowup_sections_pinned():
    series, rep = blowup_chi(3, 1)
    assert rep.chi == 9
    assert rep.h1 == ()
    trapezoid = sorted((x, y) for x in range(4) for y in range(4)
                       if 1 <= x + y <= 3)
    assert rep.h0 == tuple(trapezoid)
    assert evaluate(series, ("2", "3")) == 89


@pytest.mark.parametrize("d,e", [(0, 0), (2, 0), (2, 2), (3, 1), (0, 2), (1, 3)])
def test_blowup_euler_characteristic_closed_form(d, e):
    series, rep = blowup_chi(d, e)
    assert rep.chi == 1 + (d * (d + 3) - e * (e + 1)) // 2
    assert not set(rep.h0) & set(rep.h1)
    val = evaluate(series, ("2", "3"))
    split = (sum(Fraction(2) ** a * Fraction(3) ** b for a, b in rep.h0)
             - sum(Fraction(2) ** a * Fraction(3) ** b for a, b in rep.h1))
    assert val == split


def test_blowup_obstruction_weights():
    _, rep = blowup_chi(0, 2)
    assert rep.h0 == ()
    assert rep.h1 == ((0, 1), (1, 0))


def test_weyl_series_matches_direct_character():
    for lam in ((2, 1), (3, 0), (2, 1, 0), (1, 1, 0)):
        series, exp = weyl_via_localization(lam)
        assert len(series.terms) == [1, 2, 6, 24][len(lam) - 1]
        assert exp == weyl_character(lam)
    series, _ = weyl_via_localization((2, 1))
    pt = ("2", "3")
    assert evaluate(series, pt) == weyl_character((2, 1)).evaluate(
        [Fraction(2), Fraction(3)])


def test_weyl_series_input_checks():
    with pytest.raises(GitkitError) as exc:
        weyl_via_localization((0, 1))
    assert exc.value.code == "not_dominant"
    with pytest.raises(GitkitError) as exc:
        weyl_via_localization((1, 0, 0, 0, 0))
    assert exc.value.code == "rank_too_large"


@pytest.mark.parametrize("lam, shown", [
    ((2.5, 0), ["5/2", "0"]),
    ((Fraction(5, 2), 0), ["5/2", "0"]),
    ((True, 0), ["1", "0"]),
    ((2.0, 0), ["2", "0"]),
    ((3, Fraction(1, 2), 0, 0, 0), ["3", "1/2", "0", "0", "0"]),
])
def test_weyl_series_refuses_non_int_entries(lam, shown):
    # int() used to truncate these: (2.5, 0) gave the character of (2, 0)
    with pytest.raises(GitkitError) as exc:
        weyl_via_localization(lam)
    assert (exc.value.code, exc.value.message, exc.value.context) == (
        "not_integral", "highest weight must have integer entries", {"weight": shown})
    with pytest.raises(GitkitError) as direct:
        weyl_character(lam)
    assert (direct.value.code, direct.value.message, direct.value.context) == (
        exc.value.code, exc.value.message, exc.value.context)


def test_blowup_rejects_large_degrees():
    for d, e in ((201, 0), (0, -201), (100000, 0)):
        with pytest.raises(GitkitError) as exc:
            blowup_chi(d, e)
        assert (exc.value.code, exc.value.context) == ("bad_input", {"d": d, "e": e})
    _, rep = blowup_chi(200, 200)
    assert rep.chi == 1 + (200 * 203 - 200 * 201) // 2


def _reference_expand_in_box(series, box):
    """expand_in_box as it was before its walks were cut to the box: every
    walk runs down to the box minimum of the pairing, and the box filter
    comes last."""
    r = series.rank
    box = [(int(lo), int(hi)) for lo, hi in box]
    if len(box) != r:
        raise GitkitError("rank_mismatch", "box length does not match rank",
                          {"rank": r, "box": len(box)})
    if any(lo > hi for lo, hi in box):
        raise GitkitError("bad_box", "box bounds must satisfy lo <= hi", {})
    out: dict = {}
    for t in series.terms:
        xi = t.dir
        minval = sum(min(Fraction(xi[i]) * lo, Fraction(xi[i]) * hi)
                     for i, (lo, hi) in enumerate(box))
        cur = {w: c for w, c in t.num.terms.items() if wdot(w, xi) >= minval}
        for b in t.den:
            step = wdot(b, xi)   # strictly negative
            nxt: dict = {}
            for w, c in cur.items():
                v = w
                pv = wdot(v, xi)
                while pv >= minval:
                    nxt[v] = nxt.get(v, 0) + c
                    v = wadd(v, b)
                    pv += step
            cur = nxt
        for w, c in cur.items():
            if all(lo <= w[i] <= hi for i, (lo, hi) in enumerate(box)):
                out[w] = out.get(w, 0) + c
    return LaurentPoly(r, out)


def _ref_per_term_expand_in_box(series, box):
    """expand_in_box as it was before runs of terms with equal (den, dir) were
    merged: every term is walked on its own."""
    r = series.rank
    box = [(int(lo), int(hi)) for lo, hi in box]
    if len(box) != r:
        raise GitkitError("rank_mismatch", "box length does not match rank",
                          {"rank": r, "box": len(box)})
    if any(lo > hi for lo, hi in box):
        raise GitkitError("bad_box", "box bounds must satisfy lo <= hi", {})
    out: dict = {}
    for t in series.terms:
        scale = math.lcm(*(Fraction(x).denominator for x in t.dir))
        xi = tuple(int(x * scale) for x in t.dir)
        minval = sum(min(x * lo, x * hi) for x, (lo, hi) in zip(xi, box))
        # stages[j]: the (i, s, m) with s * v[i] >= m required before factor j
        stages = [[(i, s, s * side) for i, (lo, hi) in enumerate(box)
                   for s, side in ((1, lo), (-1, hi))
                   if all(s * b[i] <= 0 for b in t.den[j:])]
                  for j in range(len(t.den) + 1)]
        cur = {w: c for w, c in t.num.terms.items()
               if sum(x * y for x, y in zip(w, xi)) >= minval
               and all(s * w[i] >= m for i, s, m in stages[0])}
        for b, bounds in zip(t.den, stages[1:]):
            step = sum(x * y for x, y in zip(b, xi))   # strictly negative
            nxt: dict = {}
            for w, c in cur.items():
                k_lo, k_hi = 0, (minval - sum(x * y for x, y in zip(w, xi))) // step
                for i, s, m in bounds:   # a == 0: w met this bound at stage j
                    a = s * b[i]
                    if a > 0:    # b moves toward the side: skip the steps short of it
                        k_lo = max(k_lo, -((s * w[i] - m) // a))
                    elif a < 0:  # b moves away from it: the early break
                        k_hi = min(k_hi, (m - s * w[i]) // a)
                for k in range(k_lo, k_hi + 1):
                    v = tuple(x + k * y for x, y in zip(w, b))
                    nxt[v] = nxt.get(v, 0) + c
            cur = nxt
        for w, c in cur.items():
            out[w] = out.get(w, 0) + c
    return LaurentPoly(r, out)


def _assert_same_expansion(series, box):
    new, ref = expand_in_box(series, box), _reference_expand_in_box(series, box)
    assert new == ref
    assert new.to_json() == ref.to_json()
    assert list(new.terms.items()) == list(ref.terms.items())   # same insertion order
    return new


def _draw_box(draw, r):
    box = []
    for _ in range(r):
        lo = draw(st.integers(-6, 4))
        box.append((lo, lo + draw(st.sampled_from([0, 0, 1, 3, 7]))))
    return tuple(box)


@st.composite
def _series_in_box(draw, near=False):
    """Rank 1-4 series with rational directions, empty and repeated
    denominators and multi-term numerators, in boxes that may be flat
    (lo == hi) or reach below zero.  With near, numerator exponents lie in
    or next to the box (the box is drawn first); without, anywhere in -6..6,
    so most expansions are empty."""
    r = draw(st.integers(1, 4))
    box = _draw_box(draw, r) if near else None
    exps = (st.one_of(st.tuples(*[st.integers(lo, hi) for lo, hi in box]),
                      st.tuples(*[st.integers(lo - 2, hi + 2) for lo, hi in box]))
            if near else st.tuples(*[st.integers(-6, 6)] * r))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        xi = draw(st.tuples(*[st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))] * r))
        steps = st.tuples(*[st.integers(-3, 3)] * r).filter(lambda b: wdot(b, xi) < 0)
        den = draw(st.lists(steps, max_size=4)) if any(xi) else []
        if den:   # repeat some factors
            den += [den[i] for i in draw(st.lists(st.integers(0, len(den) - 1), max_size=2))]
        num = draw(st.dictionaries(exps, st.integers(-3, 3), min_size=1, max_size=4))
        terms.append(Term(LaurentPoly(r, num), tuple(den), xi))
    return ConeSeries(tuple(terms)), box or _draw_box(draw, r)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_series_in_box())
def test_expand_in_box_matches_reference(case):
    _assert_same_expansion(*case)


def test_expand_in_box_matches_reference_near_the_box():
    # the draws above compare two empty expansions in 164 of 200 cases
    sizes = []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_series_in_box(near=True))
    def compare(case):
        sizes.append(len(_assert_same_expansion(*case).terms))

    compare()
    assert sum(map(bool, sizes)) >= 60, sizes


@st.composite
def _series_in_runs(draw):
    """Rank 1-4 series whose terms come in runs that share (den, dir): one to
    three shapes with repeated factors, drawn as three to five runs that may
    interleave (D1, D2, D1), the first run at least two terms long.  Later
    terms of a run may cancel some monomials of the term before them, in any
    order.  Numerator exponents lie in or next to the box, so most sums reach
    it."""
    r = draw(st.integers(1, 4))
    box = _draw_box(draw, r)
    exps = st.one_of(st.tuples(*[st.integers(lo, hi) for lo, hi in box]),
                     st.tuples(*[st.integers(lo - 2, hi + 2) for lo, hi in box]))
    shapes = []
    for _ in range(draw(st.integers(1, 3))):
        xi = draw(st.tuples(*[st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))] * r))
        steps = st.tuples(*[st.integers(-2, 2)] * r).filter(lambda b: wdot(b, xi) < 0)
        den = draw(st.lists(steps, max_size=3)) if any(xi) else []
        if den:   # repeat some factors
            den += [den[i] for i in draw(st.lists(st.integers(0, len(den) - 1), max_size=1))]
        shapes.append((tuple(den), xi))
    terms = []
    for shape in draw(st.lists(st.integers(0, len(shapes) - 1), min_size=3, max_size=5)):
        den, xi = shapes[shape]
        prev: dict = {}
        for _ in range(draw(st.integers(1 if terms else 2, 3))):
            num = {w: -c for w, c in draw(st.permutations(list(prev.items())))
                   if draw(st.booleans())}
            num.update(draw(st.dictionaries(exps, st.integers(-3, 3), max_size=3)))
            prev = num
            terms.append(Term(LaurentPoly(r, num), den, xi))
    return ConeSeries(tuple(terms)), box


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_series_in_runs())
def test_expand_in_box_merges_runs_like_term_by_term(case):
    new = _assert_same_expansion(*case)
    per_term = _ref_per_term_expand_in_box(*case)
    assert new == per_term
    assert new.to_json() == per_term.to_json()
    assert list(new.terms.items()) == list(per_term.terms.items())   # same insertion order


# the highest weights of the benchmark's polytopes catalog
_CATALOG = tuple((a, b, 0) for a in range(2, 8) for b in range(a + 1) if (a, b) != (2, 2)) + (
    (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (2, 0, 0, 0), (2, 1, 0, 0),
    (2, 2, 0, 0), (2, 1, 1, 0), (3, 1, 0, 0), (2, 2, 1, 0), (3, 1, 1, 0),
    (4, 1, 0, 0), (3, 2, 0, 0), (3, 2, 1, 0))

# every highest weight of c10: rank 1-4, entries 0-5
_C10 = tuple(lam for r in range(1, 5) for lam in itertools.product(range(5, -1, -1), repeat=r)
             if all(lam[i] >= lam[i + 1] for i in range(r - 1)))


@pytest.fixture
def checked_expansion(monkeypatch):
    """Route every expand_in_box call of the localization module through the
    comparison with the reference."""
    monkeypatch.setattr(localization, "expand_in_box", _assert_same_expansion)


def test_expand_in_box_matches_reference_on_callers(checked_expansion):
    for lam in _CATALOG:
        weyl_via_localization(lam)
    # the reference takes about 110 s on all of c10 on a 2-vCPU machine,
    # nearly all of it at rank 4 with lam[0] - lam[3] >= 3, so those weights
    # are checked against the direct character below
    for lam in _C10:
        if len(lam) < 4 or lam[0] - lam[3] <= 2:
            weyl_via_localization(lam)
    for d in range(13):
        for e in range(d + 1):
            blowup_chi(d, e)
    for d in range(51):
        assert p1_kn_identity(d).passed


def test_weyl_series_matches_direct_character_on_c10():
    # the reference's expansion is the direct character on all of c10 too
    for lam in _C10:
        assert weyl_via_localization(lam)[1] == weyl_character(lam)


def test_weyl_series_terms_match_fraction_direction_on_c10():
    # the shared direction is built from ints; Term canonicalizes a Fraction
    # direction to the same ints, so the series is the one built from Fractions
    for lam in _C10:
        r = len(lam)
        dens = tuple(sorted(tuple(-x for x in a) for a in positive_roots(r)))
        xi = tuple(Fraction(r - i) for i in range(r))
        want = ConeSeries(tuple(Term(LaurentPoly.monomial(w, sign), dens, xi)
                                for w, sign in weyl_alternant(lam)))
        got, expansion = weyl_via_localization(lam)
        assert repr(got) == repr(want), lam
        assert got.to_json() == want.to_json(), lam
        # and the whole outcome is the previous function's, dict order included
        assert _shown((got, expansion)) == _shown(_ref_weyl_via_localization(lam)), lam


def _ref_generic_direction(r, edge_dirs):
    for k in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        xi = tuple(Fraction(k ** i) for i in range(r))
        if all(wdot(e, xi) != 0 for e in edge_dirs):
            return xi
    raise GitkitError("no_direction", "could not find a generic direction", {})


@pytest.mark.parametrize("pts", [
    [(1, 2)],
    [(0,), (2,)],
    [(0, 0), (1, 0), (0, 1)],
    [(0, 0), (2, 0), (0, 2)],
    [(0, 0), (1, 0), (1, 1), (0, 1)],
    [(0, 0), (3, 0), (3, 1), (0, 4)],
    [(-1, -1), (2, -1), (2, 2), (-1, 2)],
    [(0, 0), (2, 0)],
    [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 2)],
])
def test_vertex_sum_matches_fraction_direction(pts, monkeypatch):
    p = hull(pts)
    got = vertex_sum(p)
    assert all(type(x) is int for x in localization._generic_direction(p.rank, [(1,) * p.rank]))
    monkeypatch.setattr(localization, "_generic_direction", _ref_generic_direction)
    want = vertex_sum(p)
    assert repr(got) == repr(want)
    assert got.to_json() == want.to_json()


# `_ref_vertex_sum` and `_ref_weyl_via_localization` are the previous
# `vertex_sum` and `weyl_via_localization`, kept verbatim: every term went
# through the public Term and LaurentPoly, each flip through LaurentPoly
# multiplication, and int() truncated a non-integer highest weight.

def _ref_vertex_sum(p: Polytope) -> ConeSeries:
    """Lattice-point generating series of a smooth lattice polytope as a sum of
    vertex cone contributions, all normalized to one shared generic direction.

    Each vertex contributes t^v / prod_e (1 - t^e) over its primitive inward
    edge directions; factors pairing positively with the chosen direction are
    flipped, so every term expands in the same chamber and the box expansion
    of the sum is exactly the lattice-point indicator."""
    r = p.rank
    for v in p.vertices:
        if any(Fraction(x).denominator != 1 for x in v):
            raise GitkitError("not_lattice", "vertex sum needs integer vertices",
                              {"vertex": [fmt_rat(x) for x in v]})
    d = p.dim
    if r > 4:
        raise GitkitError("rank_too_large", "vertex sums supported up to rank 4", {"rank": r})
    if d == 0:
        v = p.vertices[0]
        xi = tuple(Fraction(1) for _ in range(r))
        return ConeSeries((Term(LaurentPoly.monomial(tuple(int(x) for x in v), 1), (), xi),))
    dirs = p.edge_frames()
    for v, es in dirs.items():
        if len(es) != d:
            raise GitkitError("not_smooth", "vertex does not have dim-many edges",
                              {"vertex": [fmt_rat(x) for x in v], "edges": len(es)})
        if _frame_index(es) != 1:
            span = "" if d == r else " in its span"
            raise GitkitError("not_smooth", "edge frame is not unimodular" + span,
                              {"vertex": [fmt_rat(x) for x in v]})
    all_dirs = sorted({e for es in dirs.values() for e in es})
    xi = localization._generic_direction(r, all_dirs)
    terms = []
    for v in p.vertices:
        vi = tuple(int(x) for x in v)
        num = LaurentPoly.monomial(vi, 1)
        den = []
        for e in dirs[v]:
            if wdot(e, xi) < 0:
                den.append(e)
            else:
                flip = tuple(-x for x in e)
                num = num * LaurentPoly.monomial(flip, -1)
                den.append(flip)
        terms.append(Term(num, tuple(sorted(den)), xi))
    return ConeSeries(tuple(terms))


def _ref_weyl_via_localization(lam) -> tuple[ConeSeries, LaurentPoly]:
    """Character of an irreducible as a fixed-point sum over the symmetric
    group: term t^{w(lam+rho)-rho} times sgn(w), all sharing the denominator
    prod over positive roots of (1 - t^{-alpha}) and one decreasing direction.

    Returns the series and its box expansion over the weight hull, which the
    direct character construction must reproduce exactly."""
    lam = tuple(int(x) for x in lam)
    r = len(lam)
    if r > 4:
        raise GitkitError("rank_too_large", "localization characters capped at rank 4",
                          {"rank": r})
    if any(lam[i] < lam[i + 1] for i in range(r - 1)):
        raise GitkitError("not_dominant", "weight entries must be weakly decreasing",
                          {"weight": list(lam)})
    dens = tuple(sorted(tuple(-x for x in a) for a in positive_roots(r)))
    xi = tuple(r - i for i in range(r))
    series = ConeSeries(tuple(Term(LaurentPoly.monomial(w, sign), dens, xi)
                              for w, sign in weyl_alternant(lam)))
    lo, hi = min(lam), max(lam)
    box = tuple((lo, hi) for _ in range(r))
    expansion = expand_in_box(series, box)
    if expansion != weyl_character(lam):
        raise GitkitError("internal", "localization expansion disagrees with the "
                          "direct character", {"weight": list(lam)})
    return series, expansion


def _shown(x):
    """repr of a series, a polynomial or a pair of them, with every numerator's
    terms in dict order (LaurentPoly's repr sorts them), or the code, message
    and context raised."""
    if isinstance(x, GitkitError):
        return x.code, x.message, x.context
    if isinstance(x, tuple):
        return tuple(map(_shown, x))
    if isinstance(x, LaurentPoly):
        return repr(x), list(x.terms.items())
    return repr(x), [list(t.num.terms.items()) for t in x.terms]


def _outcome(f, *args):
    try:
        return _shown(f(*args))
    except GitkitError as e:
        return _shown(e)


def test_weyl_series_refuses_like_reference():
    # the outcomes on c10 are compared in test_weyl_series_terms_match_fraction_direction_on_c10
    for lam in ((0, 1), (1, 0, 0, 0, 0), (), (3, 2, 1, 0, -1), [2, 1]):
        assert _outcome(weyl_via_localization, lam) == _outcome(
            _ref_weyl_via_localization, lam), lam


def test_vertex_sum_matches_reference_on_c10_orbits():
    made = 0
    for lam in _C10:
        p = hull(weyl_orbit(lam, len(lam)))
        got = _outcome(vertex_sum, p)
        assert got == _outcome(_ref_vertex_sum, p), lam
        made += len(got) == 2   # a series, not an error
    assert made >= 150, made   # the rest are not smooth


@st.composite
def _smooth_or_not(draw):
    """Boxes and dilated simplices of dimension 1-3 moved by a unimodular
    shear and a translation, so they stay smooth, and set in rank up to 4;
    or a few small lattice or rational points, mostly not smooth."""
    if draw(st.integers(0, 3)) == 0:
        r = draw(st.integers(1, 3))
        coord = st.integers(-2, 2) | st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2))
        return hull(draw(st.lists(st.tuples(*[coord] * r), min_size=1, max_size=6)))
    d = draw(st.integers(1, 3))
    sizes = [draw(st.integers(1, 3)) for _ in range(d)]
    if draw(st.booleans()):
        pts = list(itertools.product(*[(0, a) for a in sizes]))
    else:
        pts = [(0,) * d] + [tuple(sizes[0] * (i == j) for i in range(d)) for j in range(d)]
    shear = [[1 if i == j else draw(st.integers(-1, 1)) if j > i else 0 for j in range(d)]
             for i in range(d)]
    r = draw(st.integers(d, min(d + 1, 4)))
    shift = draw(st.tuples(*[st.integers(-3, 3)] * r))
    lifted = [tuple(sum(map(mul, row, q)) for row in shear) + (0,) * (r - d) for q in pts]
    return hull([tuple(map(add, q, shift)) for q in lifted])


def test_vertex_sum_matches_reference_on_drawn_polytopes():
    made = []

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(_smooth_or_not())
    def compare(p):
        got = _outcome(vertex_sum, p)
        assert got == _outcome(_ref_vertex_sum, p), p
        made.append(len(got) == 2)

    compare()
    assert sum(made) >= 20, sum(made)


def test_built_terms_are_not_shared_between_calls():
    p = hull([(0, 0), (3, 0), (3, 1), (0, 4)])
    series = ConeSeries((Term(LaurentPoly(2, {(0, 0): 1, (1, 2): -2}), ((-1, 0),), (1, 1)),))
    calls = [lambda: weyl_via_localization((2, 1, 0)), lambda: vertex_sum(p),
             lambda: expand_in_box(series, ((-2, 2), (0, 3)))]
    for call in calls:
        first, want = call(), _shown(call())
        polys = [first] if isinstance(first, LaurentPoly) else (
            [t.num for t in first.terms] if isinstance(first, ConeSeries) else
            [first[1]] + [t.num for t in first[0].terms])
        for poly in polys:
            poly.terms.clear()
            poly.terms[(7,) * poly.rank] = 5
        assert _shown(call()) == want


# ------------------------------------------------------ evaluation in integers
#
# `_ref_evaluate` and `_ref_laurent_evaluate` are the previous `evaluate` and
# `LaurentPoly.evaluate`, kept verbatim but for the `_ref_` name the first
# calls: a Fraction power per coordinate of every monomial, a Fraction
# product per denominator factor and a Fraction sum per term.

def _ref_laurent_evaluate(self, point) -> Fraction:
    """Exact evaluation at a tuple of nonzero rationals (zero allowed only
    when no negative exponent touches that coordinate)."""
    pt = [Fraction(x) for x in point]
    if len(pt) != self.rank:
        raise GitkitError("rank_mismatch", "evaluation point has wrong length",
                          {"rank": self.rank, "point": [str(x) for x in pt]})
    total = Fraction(0)
    for w, c in self.terms.items():
        val = Fraction(c)
        for x, e in zip(pt, w):
            if x == 0:
                if e < 0:
                    raise GitkitError("pole", "zero coordinate raised to a negative power",
                                      {"point": [str(v) for v in pt]})
                if e > 0:
                    val = Fraction(0)
                    break
            else:
                val *= x ** e
        total += val
    return total


def _ref_evaluate(series: ConeSeries, point) -> Fraction:
    """Exact value at a rational point; hitting a denominator zero raises and
    asks for a different sample point."""
    pt = [Fraction(rat(x)) for x in point]
    total = Fraction(0)
    for t in series.terms:
        val = _ref_laurent_evaluate(t.num, pt)
        for b in t.den:
            mono = Fraction(1)
            for x, e in zip(pt, b):
                if x == 0 and e < 0:
                    raise GitkitError("pole", "zero coordinate with negative exponent; "
                                      "pick another sample point", {})
                mono *= x ** e
            factor = 1 - mono
            if factor == 0:
                raise GitkitError("pole", "sample point lies on a denominator zero; "
                                  "pick another sample point",
                                  {"exponent": list(b)})
            val /= factor
        total += val
    return total


def _evaluated(f, *args):
    """repr of f's value, or the code, message and context it raised (the
    type and text of any other exception)."""
    try:
        return repr(f(*args))
    except GitkitError as e:
        return e.code, e.message, e.context
    except (TypeError, ValueError) as e:   # raw conversion errors must match too
        return type(e).__name__, str(e)


# zero, signs, 1 and -1 (so 1 - t^b can vanish) and p/q coordinates, some as text
_EVAL_COORD = st.sampled_from([0, 1, -1, 2, -2, 3, 5, Fraction(1, 2), Fraction(-3, 2),
                               Fraction(2, 3), Fraction(-5, 4), Fraction(3, 7),
                               Fraction(-7, 3), "1/3", "-3", "7/5", "-11/2"])


@st.composite
def _series_and_point(draw):
    """A vertex sum of a drawn polytope, a p1_chi or blowup_chi series, a
    Weyl series, or a drawn series with multi-term numerators, at a point of
    its rank (now and then one coordinate more or less)."""
    kind = draw(st.sampled_from(["vertex_sum", "p1", "blowup", "weyl", "drawn", "drawn"]))
    if kind == "vertex_sum":
        try:
            series = vertex_sum(draw(_smooth_or_not()))
        except GitkitError:
            series = p1_chi(draw(st.integers(-4, 4)))
    elif kind == "p1":
        series = p1_chi(draw(st.integers(-6, 6)))
    elif kind == "blowup":
        series = blowup_chi(draw(st.integers(-3, 4)), draw(st.integers(-3, 4)))[0]
    elif kind == "weyl":
        series = weyl_via_localization(draw(st.sampled_from([(1, 0), (2, 1, 0), (1, 1, 0, 0)])))[0]
    else:
        series = draw(_series_in_box())[0]
    r = series.rank + draw(st.sampled_from([0] * 12 + [-1, 1]))
    return series, tuple(draw(_EVAL_COORD) for _ in range(max(r, 0)))


def test_evaluate_matches_reference():
    seen = []

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(_series_and_point())
    def compare(case):
        series, point = case
        got = _evaluated(evaluate, series, point)
        assert got == _evaluated(_ref_evaluate, series, point), case
        for t in series.terms:
            pt = tuple(map(rat, point))
            assert _evaluated(t.num.evaluate, pt) == _evaluated(
                _ref_laurent_evaluate, t.num, pt), (t.num, pt)
        seen.append(got[:2] if isinstance(got, tuple) else "value")

    compare()
    counts = {k: seen.count(k) for k in set(seen)}
    assert counts["value"] >= 200, counts
    for message in ("evaluation point has wrong length",
                    "zero coordinate raised to a negative power",
                    "zero coordinate with negative exponent; pick another sample point",
                    "sample point lies on a denominator zero; pick another sample point"):
        assert sum(n for k, n in counts.items() if k[1:] == (message,)) >= 20, (message, counts)


@pytest.mark.parametrize("terms, point", [
    ({(1, -1): 2}, (0, 0)),        # the zero with a positive exponent comes first: 0
    ({(-1, 1): 2}, (0, 0)),        # the zero with a negative exponent comes first: a pole
    ({(0, -2): 1, (3, 0): -4}, (0, "1/2")),
    ({(2, 3): 5, (-2, -3): 7, (0, 0): -1}, ("-2/3", "5/7")),
    ({(1,): 1}, ("x",)),
    ({(1,): 1}, (1, 2)),
    ({}, (0, 0)),
])
def test_laurent_evaluate_matches_reference(terms, point):
    poly = LaurentPoly(len(next(iter(terms))) if terms else 2, terms)
    assert _evaluated(poly.evaluate, point) == _evaluated(_ref_laurent_evaluate, poly, point)
