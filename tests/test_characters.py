"""Characters: exact Laurent polynomial arithmetic and highest-weight data.

The dimension product formula acts as the independent oracle for the
division route inside weyl_character, and small tensor decompositions are
pinned by hand.  The earlier routes (long division on the lex-max term, and
product-and-strip for tensor products and invariants) are kept below as
references that the alternating-sum routes must match, dict order included.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gitkit.characters import (
    LaurentPoly,
    _divide_one_factor,
    bwb_cohomology,
    invariant_dim,
    positive_roots,
    su2_invariant_dim,
    tensor_decompose,
    weyl_character,
    weyl_dim,
)
from gitkit.lie import (
    GitkitError,
    Weight,
    is_dominant,
    rho,
    wadd,
    weight_to_json,
    weyl_orbit,
    wsub,
)


# ---------------------------------------------------------------- LaurentPoly

def test_poly_build_and_coeff():
    p = LaurentPoly(2, {(0, 1): 3, (2, -1): -4})
    assert p.coeff((0, 1)) == 3
    assert p.coeff((5, 5)) == 0
    assert set(p.terms) == {(0, 1), (2, -1)}
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


def test_zero_poly_repr():
    assert repr(LaurentPoly.zero(2)) == "LaurentPoly(0)"


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
    assert set(ch.terms) == weyl_orbit((2, 1, 0), 3) | {(1, 1, 1)}


def test_weyl_character_standard():
    ch = weyl_character((1, 0, 0))
    assert set(ch.terms) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert all(ch.coeff(w) == 1 for w in ch.terms)


def test_weyl_character_rejects_bad_input():
    with pytest.raises(GitkitError):
        weyl_character((0, 1))
    with pytest.raises(GitkitError):
        weyl_character((Fraction(1, 2), 0))


def test_weyl_character_refuses_rank_above_six():
    with pytest.raises(GitkitError) as exc:
        weyl_character((6, 5, 4, 3, 2, 1, 0))
    assert exc.value.code == "rank_too_large"


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
    for w in list(ch.terms):
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


@pytest.mark.parametrize("labels, scale", [
    (["a"], 1), ([float("nan")], 1), ([1], "x"), ([1], 0.5), (5, 1), (None, 1),
])
def test_su2_invariant_dim_rejects_bad_input(labels, scale):
    with pytest.raises(GitkitError) as exc:
        su2_invariant_dim(labels, scale=scale)
    assert exc.value.code == "bad_input"


# ----------------------------------------------------------- sheaf cohomology

def test_su2_invariant_dim_refuses_negative_labels():
    with pytest.raises(GitkitError) as exc:
        su2_invariant_dim([-1, 1])
    assert exc.value.code == "bad_input"


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


@pytest.mark.parametrize("call, message", [
    (lambda: bwb_cohomology((True, 0)), "integral weight required"),
    (lambda: bwb_cohomology((0, False, 0)), "integral weight required"),
    (lambda: tensor_decompose((True, 0), (1, 0)), "highest weight must have integer entries"),
    (lambda: tensor_decompose((1, 0), (True, False)), "highest weight must have integer entries"),
])
def test_bool_entries_are_not_integers(call, message):
    # isinstance(True, int) holds, so True used to pass as 1
    with pytest.raises(GitkitError) as exc:
        call()
    assert (exc.value.code, exc.value.message) == ("not_integral", message)


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


# ----------------------------------------------- reference routes, kept verbatim
# The long division, product-and-strip decomposition and invariant count that
# the alternating-sum routes replaced; only the names are prefixed with _ref.

def _ref_divide_one_factor(terms: dict, beta: tuple[int, ...], step_cap: int) -> dict:
    # exact division by (1 - t^beta) with beta lex-negative, so the divisor's
    # leading monomial is 1 and long division peels the lex-max term
    quotient: dict = {}
    rem = dict(terms)
    steps = 0
    while rem:
        steps += 1
        if steps > step_cap:
            raise GitkitError("non_exact_division",
                              "alternating-sum numerator is not divisible by the root factor",
                              {"beta": list(beta)})
        m = max(rem)
        c = rem.pop(m)
        quotient[m] = quotient.get(m, 0) + c
        m2 = wadd(m, beta)
        nc = rem.get(m2, 0) + c
        if nc:
            rem[m2] = nc
        else:
            rem.pop(m2, None)
    return quotient


@functools.lru_cache(maxsize=None)
def _ref_weyl_terms(lam: Weight) -> dict:
    """The terms of weyl_character(lam), computed and verified."""
    r = len(lam)
    shift = rho(r)
    target = wadd(lam, shift)  # strictly decreasing, so all permutations distinct
    num: dict = {}
    for perm in itertools.permutations(range(r)):
        v = tuple(target[perm[i]] for i in range(r))
        inv = sum(1 for a in range(r) for b in range(a + 1, r) if perm[a] > perm[b])
        w = wsub(v, shift)
        num[w] = num.get(w, 0) + (-1 if inv % 2 else 1)

    dim = weyl_dim(lam)
    cap = 500 * max(dim, 1) + 20000
    terms = {k: v for k, v in num.items() if v}
    for i in range(r):
        for j in range(i + 1, r):
            beta = [0] * r
            beta[i], beta[j] = -1, 1  # -(e_i - e_j), lex-negative
            terms = _ref_divide_one_factor(terms, tuple(beta), cap)

    poly = LaurentPoly(r, terms)
    if any(c < 0 for c in poly.terms.values()):
        raise GitkitError("internal", "negative multiplicity after division",
                          {"weight": weight_to_json(lam)})
    if poly.total_coeff_sum() != dim:
        raise GitkitError("internal", "character dimension mismatch",
                          {"weight": weight_to_json(lam), "expected": dim,
                           "got": poly.total_coeff_sum()})
    return poly.terms


def _ref_weyl_character(lam: Weight) -> LaurentPoly:
    return LaurentPoly(len(lam), _ref_weyl_terms(tuple(lam)))


def _ref_decompose(poly: LaurentPoly) -> dict[Weight, int]:
    """Write a virtual character as an integer combination of irreducibles by
    repeatedly stripping the lex-max weight.  Aborts on negative multiplicity."""
    rem = poly
    out: dict[Weight, int] = {}
    while not rem.is_zero():
        top = max(rem.terms)
        if not is_dominant(top):
            raise GitkitError("internal", "lex-max support weight is not dominant",
                              {"weight": list(top)})
        mult = rem.terms[top]
        if mult < 0:
            raise GitkitError("not_a_character",
                              "negative multiplicity encountered during decomposition",
                              {"weight": list(top), "multiplicity": mult})
        out[top] = mult
        rem = rem - _ref_weyl_character(top).scale(mult)
    return out


def _ref_tensor_decompose(lam: Weight, mu: Weight) -> dict[Weight, int]:
    """Multiplicities of the irreducible pieces of V_lam (x) V_mu."""
    lam, mu = tuple(lam), tuple(mu)
    if len(lam) != len(mu):
        raise GitkitError("rank_mismatch", "tensor factors must share a rank",
                          {"left": len(lam), "right": len(mu)})
    prod = _ref_weyl_character(lam) * _ref_weyl_character(mu)
    out = _ref_decompose(prod)
    if sum(weyl_dim(nu) * m for nu, m in out.items()) != weyl_dim(lam) * weyl_dim(mu):
        raise GitkitError("internal", "tensor pieces do not add up to the product dimension",
                          {"lambda": weight_to_json(lam), "mu": weight_to_json(mu)})
    return out


def _ref_invariant_dim(lams: list, group: str = "SL") -> int:
    """Dimension of the invariant subspace of a tensor product of irreducibles.

    'GL' counts the trivial character exactly; 'SL' also counts determinant
    twists, i.e. all weights with equal coordinates.
    """
    if group not in ("SL", "GL"):
        raise GitkitError("bad_group", "group must be 'SL' or 'GL'", {"group": group})
    lams = [tuple(l) for l in lams]
    if not lams:
        raise GitkitError("bad_input", "need at least one factor", {})
    r = len(lams[0])
    if any(len(l) != r for l in lams):
        raise GitkitError("rank_mismatch", "factors must share a rank", {})
    prod = LaurentPoly.one(r)
    for l in lams:
        prod = prod * _ref_weyl_character(l)
    decomp = _ref_decompose(prod)
    if group == "GL":
        return decomp.get((0,) * r, 0)
    total = 0
    for nu, m in decomp.items():
        if len(set(nu)) == 1:
            total += m
    return total


# Entries in -1..3 keep the quadratic reference division fast at rank 5.
def _dominant(r: int, lo: int = -1, hi: int = 3):
    return st.lists(st.integers(lo, hi), min_size=r, max_size=r).map(
        lambda xs: tuple(sorted(xs, reverse=True)))


_REFERENCE = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@_REFERENCE
@given(st.integers(1, 5).flatmap(_dominant))
def test_weyl_character_matches_long_division(lam):
    assert list(weyl_character(lam).terms.items()) == list(_ref_weyl_terms(lam).items())


@_REFERENCE
@given(st.integers(1, 4).flatmap(lambda r: st.tuples(_dominant(r), _dominant(r))))
def test_tensor_decompose_matches_product_and_strip(pair):
    lam, mu = pair
    assert list(tensor_decompose(lam, mu).items()) == list(_ref_tensor_decompose(lam, mu).items())


@_REFERENCE
@given(st.integers(1, 3).flatmap(
    lambda r: st.lists(_dominant(r, -2, 2), min_size=1, max_size=4)))
def test_invariant_dim_matches_product_and_strip(lams):
    for group in ("SL", "GL"):
        assert invariant_dim(lams, group) == _ref_invariant_dim(lams, group)


@_REFERENCE
@given(st.dictionaries(st.tuples(*[st.integers(-3, 3)] * 3), st.integers(-4, 4), max_size=8),
       st.sampled_from(positive_roots(3)))
def test_divide_one_factor_inverts_multiplication(g, alpha):
    # any multiple of (1 - t^beta), homogeneous or not, divides back to g, lex-descending
    beta = tuple(-a for a in alpha)
    g = LaurentPoly(3, g)
    f = g - g * LaurentPoly.monomial(beta)
    assert list(_divide_one_factor(f.terms, beta).items()) == sorted(g.terms.items(), reverse=True)


def test_divide_one_factor_rejects_non_multiple():
    with pytest.raises(GitkitError) as exc:
        _divide_one_factor({(1, 0): 1}, (-1, 1))
    assert exc.value.code == "non_exact_division"
