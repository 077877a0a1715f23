"""Weight arithmetic and symmetric-group basics."""

import itertools
import time
from fractions import Fraction
from math import inf, nan

import pytest
from hypothesis import given, strategies as st

from gitkit.lie import (
    ORBIT_POINTS_CAP,
    GitkitError,
    WeylElement,
    dominantize,
    fmt_rat,
    is_dominant,
    is_integral,
    primitive_integer,
    rat,
    rho,
    wadd,
    wdot,
    weight,
    weight_from_json,
    weight_to_json,
    weyl_orbit,
    wneg,
    wnorm_sq,
    wsub,
)
from gitkit.characters import weyl_character
from gitkit.polytopes import hull, kostant_polytope, symplectic_cut
from gitkit.stability import (
    critical_types,
    hm_slope,
    kempf_ness,
    moment_map,
    nearest_point_of_hull,
    proj_point,
)


def test_rat_canonicalizes_to_int():
    assert rat(Fraction(4, 2)) == 2
    assert isinstance(rat(Fraction(4, 2)), int)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)


def test_rat_rejects_bool():
    with pytest.raises(GitkitError) as e:
        rat(True)
    assert e.value.code == "bad_rational"


@pytest.mark.parametrize("text,value", [
    ("3", 3),
    ("-5", -5),
    ("1/2", Fraction(1, 2)),
    ("-7/3", Fraction(-7, 3)),
    (" 2/4 ", Fraction(1, 2)),
])
def test_parse_rat(text, value):
    assert rat(text) == value


@pytest.mark.parametrize("bad", ["", "a", "1/0", "1.5.2", None])
def test_parse_rat_rejects(bad):
    with pytest.raises(GitkitError) as e:
        rat(bad)
    assert e.value.code == "bad_rational"


_LINE = proj_point([(1, 0), (-1, 0)])
_TRIANGLE = hull([(0, 0), (1, 0), (0, 1)])


# every public entry that canonicalizes a weight through `lie.weight` or `rat`:
# an entry Fraction() cannot take is a coded error, not a ValueError,
# TypeError or OverflowError
@pytest.mark.parametrize("call, bad", [
    (lambda: kostant_polytope((1, "x")), "x"),
    (lambda: kostant_polytope((None,)), None),
    (lambda: kostant_polytope((1, nan)), nan),
    (lambda: kostant_polytope((1, inf)), inf),
    (lambda: hull([(1, "x")]), "x"),
    (lambda: proj_point([(1, "x")]), "x"),
    (lambda: nearest_point_of_hull([(1, "x")]), "x"),
    (lambda: critical_types([(1, "x")]), "x"),
    (lambda: hm_slope(_LINE, ("a", 0)), "a"),
    (lambda: _TRIANGLE.contains(("a", 0)), "a"),
    (lambda: symplectic_cut(_TRIANGLE, (None, 0), 0), None),
    (lambda: moment_map(_LINE, shift=("z", 0)), "z"),
    (lambda: rat(inf), inf),
    (lambda: rat(-inf), -inf),
    (lambda: weyl_character((1, "x")), "x"),
    (lambda: kempf_ness(_LINE, ("x", 0)), "x"),
    (lambda: dominantize((1, "x")), "x"),
    (lambda: weyl_orbit((1, "x"), 2), "x"),
], ids=["kostant-text", "kostant-none", "kostant-nan", "kostant-inf", "hull", "proj_point",
        "nearest_point", "critical_types", "hm_slope", "contains", "symplectic_cut",
        "moment_map", "parse_rat-inf", "parse_rat-minus-inf", "weyl_character", "kempf_ness",
        "dominantize", "weyl_orbit"])
def test_entries_that_are_not_rationals_are_refused(call, bad):
    with pytest.raises(GitkitError) as e:
        call()
    assert (e.value.code, e.value.message, e.value.context) == (
        "bad_rational", f"cannot parse a rational from {bad!r}", {})


def test_fmt_rat_roundtrip():
    for v in (0, 7, -3, Fraction(5, 4), Fraction(-1, 6)):
        assert rat(fmt_rat(v)) == v


def test_weight_json_roundtrip():
    w = weight([1, Fraction(-2, 3), 0])
    assert weight_from_json(weight_to_json(w)) == w


def test_arithmetic():
    a = weight([1, 2, 3])
    b = weight([Fraction(1, 2), 0, -1])
    assert wadd(a, b) == (Fraction(3, 2), 2, 2)
    assert wsub(a, b) == (Fraction(1, 2), 2, 4)
    assert wneg(b) == (Fraction(-1, 2), 0, 1)
    assert wdot(a, b) == Fraction(-5, 2)
    assert wnorm_sq(a) == 14


def test_length_mismatch_raises():
    for op in (wadd, wsub, wdot):
        with pytest.raises(GitkitError) as e:
            op((1, 2), (1, 2, 3))
        assert e.value.code == "rank_mismatch"
        assert e.value.context == {"lengths": [2, 3]}


def test_integrality():
    assert is_integral((1, Fraction(4, 2)))
    assert not is_integral((Fraction(1, 2),))


@pytest.mark.parametrize("vec,prim", [
    ((Fraction(1, 2), Fraction(1, 3)), (3, 2)),
    ((4, 6), (2, 3)),
    ((0, -2), (0, -1)),
    ((Fraction(-3, 4),), (-1,)),
])
def test_primitive_integer(vec, prim):
    assert primitive_integer(vec) == prim


def test_primitive_integer_zero_raises():
    with pytest.raises(GitkitError) as e:
        primitive_integer((0, 0))
    assert e.value.code == "zero_vector"


def test_weyl_element_apply_and_sign():
    w = WeylElement((1, 0, 2))        # swap slots 0 and 1
    assert w.apply((5, 7, 9)) == (7, 5, 9)
    assert w.length == 1
    assert w.sign == -1
    assert WeylElement((0, 1, 2)).apply((5, 7, 9)) == (5, 7, 9)


def test_weyl_orbit_sizes():
    assert len(weyl_orbit((2, 1, 0), 3)) == 6
    assert len(weyl_orbit((1, 1, 0), 3)) == 3
    assert len(weyl_orbit((0, 0, 0), 3)) == 1


@given(st.lists(st.sampled_from([0, 1, 2, Fraction(1, 2)]), max_size=6))
def test_weyl_orbit_is_the_set_of_permutations(lam):
    lam = tuple(lam)
    assert weyl_orbit(lam, len(lam)) == set(itertools.permutations(lam))


def test_weyl_orbit_is_capped_before_any_point_is_made():
    start = time.perf_counter()
    with pytest.raises(GitkitError) as e:
        weyl_orbit(tuple(range(10)), 10)
    assert time.perf_counter() - start < 1
    assert e.value.code == "too_large"
    assert e.value.context == {"points": 3628800, "cap": ORBIT_POINTS_CAP}


def test_weyl_orbit_below_the_cap_answers():
    assert len(weyl_orbit(tuple(range(9)), 9)) == 362880
    # 12 points, though the rank-12 symmetric group has 479001600 elements
    unit = (1,) + (0,) * 11
    assert weyl_orbit(unit, 12) == {tuple(int(i == j) for j in range(12)) for i in range(12)}


def test_rho():
    assert rho(1) == (0,)
    assert rho(4) == (3, 2, 1, 0)
    with pytest.raises(GitkitError):
        rho(0)


def test_dominantize():
    w, dom = dominantize((0, 2, 1))
    assert dom == (2, 1, 0)
    assert w.apply((0, 2, 1)) == (2, 1, 0)
    assert dominantize((1, 1, 0)) is None
    assert is_dominant((3, 3, 1))
    assert not is_dominant((1, 2))


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=5))
def test_dominantize_orbit_property(mu):
    mu = tuple(mu)
    out = dominantize(mu)
    if out is None:
        assert len(set(mu)) < len(mu)
    else:
        w, dom = out
        assert sorted(dom, reverse=True) == list(dom)
        assert sorted(dom) == sorted(mu)
        assert w.apply(mu) == dom


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=4),
       st.lists(st.integers(-9, 9), min_size=2, max_size=4))
def test_dot_symmetry(a, b):
    n = min(len(a), len(b))
    a, b = tuple(a[:n]), tuple(b[:n])
    assert wdot(a, b) == wdot(b, a)
