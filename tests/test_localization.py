"""Tests for fixed-point cone series: rational identities vs box expansions."""

from fractions import Fraction

import pytest

from gitkit.characters import LaurentPoly, weyl_character
from gitkit.lie import GitkitError
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
from gitkit.polytopes import hull, lattice_points


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
