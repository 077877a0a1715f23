"""Characters: exact Laurent polynomial arithmetic and highest-weight data.

The dimension product formula acts as the independent oracle for the
division route inside weyl_character, and small tensor decompositions are
pinned by hand.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gitkit.characters import (
    LaurentPoly,
    bwb_cohomology,
    invariant_dim,
    positive_roots,
    su2_invariant_dim,
    tensor_decompose,
    weyl_character,
    weyl_dim,
)
from gitkit.lie import GitkitError, rho, weyl_orbit


# ---------------------------------------------------------------- LaurentPoly

def test_poly_build_and_coeff():
    p = LaurentPoly(2, {(0, 1): 3, (2, -1): -4})
    assert p.coeff((0, 1)) == 3
    assert p.coeff((5, 5)) == 0
    assert p.support() == {(0, 1), (2, -1)}
    assert not p.is_zero()
    assert LaurentPoly.zero(2).is_zero()


def test_poly_drops_zero_terms():
    p = LaurentPoly(1, {(3,): 0})
    assert p.is_zero()
    q = LaurentPoly.monomial((2,)) - LaurentPoly.monomial((2,))
    assert q.is_zero()


def test_poly_rejects_non_integer_coeff():
    with pytest.raises(GitkitError):
        LaurentPoly(1, {(0,): Fraction(1, 2)})


def test_poly_rank_mismatch():
    with pytest.raises(GitkitError):
        LaurentPoly.monomial((1, 0)) + LaurentPoly.monomial((1,))


def test_poly_ring_ops():
    x = LaurentPoly.monomial((1,))
    xinv = LaurentPoly.monomial((-1,))
    one = LaurentPoly.one(1)
    assert x * xinv == one
    assert (x + one) * (x - one) == x * x - one
    assert (x + one).scale(3) == x.scale(3) + one.scale(3)
    assert -(x - one) == one - x


def test_poly_evaluate_exact():
    p = LaurentPoly(2, {(1, 0): 1, (0, -1): 2})
    assert p.evaluate((Fraction(1, 2), 3)) == Fraction(1, 2) + Fraction(2, 3)


def test_poly_evaluate_pole():
    p = LaurentPoly(1, {(-1,): 1})
    with pytest.raises(GitkitError) as e:
        p.evaluate((0,))
    assert e.value.code == "pole"


def test_poly_zero_to_zero_power():
    # 0^0 = 1 so a constant term survives evaluation at zero
    p = LaurentPoly(1, {(0,): 5})
    assert p.evaluate((0,)) == 5


def test_poly_json_roundtrip():
    p = LaurentPoly(2, {(1, -2): 3, (0, 0): -1})
    assert LaurentPoly.from_json(p.to_json(), 2) == p
    assert LaurentPoly.from_json(LaurentPoly.zero(3).to_json(), 3).is_zero()


@pytest.mark.parametrize("arr", [
    5,
    [5],
    [{"w": [1, "2"], "c": 1}],
    [{"w": [1, 2.0], "c": 1}],
    [{"w": (1, 2), "c": 1}],
    [{"w": [1, 2], "c": 2.5}],
    [{"w": [1, 2], "c": "3"}],
    [{"w": [1, 2], "c": True}],
    [{"w": [1, 2]}],
])
def test_poly_from_json_rejects_bad_terms(arr):
    with pytest.raises(GitkitError) as exc:
        LaurentPoly.from_json(arr, 2)
    assert exc.value.code == "bad_input"


small_polys = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-5, 5), max_size=4,
).map(lambda d: LaurentPoly(2, d))


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_poly_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_poly_evaluate_is_ring_hom(a, b):
    pt = (Fraction(2, 3), Fraction(-3, 2))
    assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
    assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


# ------------------------------------------------------------- Weyl characters

def test_positive_roots_count():
    for r in range(1, 6):
        assert len(positive_roots(r)) == r * (r - 1) // 2


def test_weyl_dim_hand_values():
    assert weyl_dim((0, 0)) == 1
    assert weyl_dim((1, 0)) == 2
    assert weyl_dim((2, 1, 0)) == 8
    assert weyl_dim((1, 0, 0)) == 3
    assert weyl_dim((2, 0, 0)) == 6
    assert weyl_dim((1, 1, 0)) == 3


def test_weyl_character_adjoint_sl3():
    ch = weyl_character((2, 1, 0))
    assert ch.total_coeff_sum() == 8
    assert ch.coeff((1, 1, 1)) == 2
    assert ch.coeff((2, 1, 0)) == 1
    assert ch.coeff((0, 1, 2)) == 1
    # support is the orbit of the extreme weights plus the double core
    assert ch.support() == weyl_orbit((2, 1, 0), 3) | {(1, 1, 1)}


def test_weyl_character_standard():
    ch = weyl_character((1, 0, 0))
    assert ch.support() == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert all(ch.coeff(w) == 1 for w in ch.support())


def test_weyl_character_rejects_bad_input():
    with pytest.raises(GitkitError):
        weyl_character((0, 1))
    with pytest.raises(GitkitError):
        weyl_character((Fraction(1, 2), 0))


def test_weyl_character_dim_oracle_random():
    """Division route must reproduce the closed-form dimension count."""
    rng = random.Random(11)
    for _ in range(50):
        r = rng.randint(1, 4)
        lam = tuple(sorted((rng.randint(0, 5) for _ in range(r)), reverse=True))
        ch = weyl_character(lam)
        assert ch.total_coeff_sum() == weyl_dim(lam)
        assert all(c > 0 for c in ch.terms.values())


def test_weyl_character_orbit_symmetry():
    ch = weyl_character((3, 1, 0))
    for w in list(ch.support()):
        for p in weyl_orbit(w, 3):
            assert ch.coeff(p) == ch.coeff(w)


# ---------------------------------------------------------------- tensor route

def test_tensor_standard_squared_sl2():
    out = tensor_decompose((1, 0), (1, 0))
    assert out == {(2, 0): 1, (1, 1): 1}


def test_tensor_adjoint_core_sl3():
    out = tensor_decompose((1, 0, 0), (1, 1, 0))
    assert out == {(2, 1, 0): 1, (1, 1, 1): 1}


def test_tensor_dims_always_match():
    rng = random.Random(5)
    for _ in range(20):
        r = rng.randint(1, 3)
        lam = tuple(sorted((rng.randint(0, 3) for _ in range(r)), reverse=True))
        mu = tuple(sorted((rng.randint(0, 3) for _ in range(r)), reverse=True))
        out = tensor_decompose(lam, mu)
        assert sum(m * weyl_dim(nu) for nu, m in out.items()) == weyl_dim(lam) * weyl_dim(mu)
        assert all(m > 0 for m in out.values())


def test_gl2_pieri_interlacing():
    # multiplying by a one-row weight inserts boxes one per column
    out = tensor_decompose((3, 1), (2, 0))
    assert out == {(5, 1): 1, (4, 2): 1, (3, 3): 1}


# ------------------------------------------------------------------ invariants

def test_invariant_dim_sl2_strings():
    assert invariant_dim([(1, 0), (1, 0)]) == 1
    assert invariant_dim([(1, 0)]) == 0
    assert invariant_dim([(1, 0), (1, 0), (1, 0)]) == 0
    assert invariant_dim([(2, 0), (2, 0), (2, 0)]) == 1


def test_invariant_dim_gl_vs_sl():
    # GL needs the weight zero itself, SL only the diagonal line
    assert invariant_dim([(1, 0), (1, 0)], group="GL") == 0
    assert invariant_dim([(1, 0), (0, -1)], group="GL") == 1
    assert invariant_dim([(1, 0), (0, -1)], group="SL") == 1


def test_su2_invariant_dim_matches_tensor_route():
    for labels in ([1, 1], [2, 2, 2], [1, 2, 3], [3, 3], [1, 1, 1], [4, 2, 2]):
        direct = su2_invariant_dim(labels)
        via = invariant_dim([(a, 0) for a in labels], group="SL")
        assert direct == via


def test_su2_invariant_dim_scale():
    assert su2_invariant_dim([Fraction(1, 2), Fraction(1, 2)], scale=2) == 1
    with pytest.raises(GitkitError):
        su2_invariant_dim([Fraction(1, 2)], scale=3)


# ----------------------------------------------------------- sheaf cohomology

def test_bwb_degrees():
    assert bwb_cohomology((2, 0)) == (0, (2, 0))
    assert bwb_cohomology((0, 0)) == (0, (0, 0))
    assert bwb_cohomology((-1, 0)) is None
    assert bwb_cohomology((-4, 0)) == (1, (-1, -3))
    assert bwb_cohomology((-2, 0)) == (1, (-1, -1))


def test_bwb_rank3():
    # one singular and one regular shifted weight
    assert bwb_cohomology((-2, 0, 0)) is None
    out = bwb_cohomology((-3, 0, 0))
    assert out is not None
    deg, dom = out
    assert deg == 2
    assert dom == (-1, -1, -1)


def test_cached_character_is_read_only():
    with pytest.raises(TypeError):
        weyl_character((1, 0)).terms[(9, 9)] = 5
    assert weyl_character((1, 0)).terms == {(1, 0): 1, (0, 1): 1}
    assert weyl_character((1, 0)).to_json() == [{"w": [0, 1], "c": 1}, {"w": [1, 0], "c": 1}]


def test_cached_character_cannot_be_rebound():
    # every call hands out its own poly over the shared read-only terms
    weyl_character((1, 0)).terms = {(9, 9): 5}
    weyl_character((1, 0)).rank = 3
    assert weyl_character((1, 0)) == LaurentPoly(2, {(1, 0): 1, (0, 1): 1})
    assert tensor_decompose((1, 0), (1, 0)) == {(2, 0): 1, (1, 1): 1}
