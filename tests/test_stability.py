"""Torus stability: exact classification against the numerical flow.

classify_stability and nearest_point_of_hull run on exact rationals;
minimize_kempf_ness runs on floats.  Each side is tested alone and then the
two are played against each other on random supports.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gitkit.lie import GitkitError, rat, wadd, wdot, wsub
from gitkit.stability import (
    HMSlope,
    Polystable,
    ProjPoint,
    SemistableNotPolystable,
    Stable,
    Unstable,
    associated_graded,
    classify_stability,
    critical_types,
    hm_slope,
    jordan_holder_cone,
    kempf_ness,
    max_destabilizing,
    minimize_kempf_ness,
    moment_map,
    nearest_point_of_hull,
    orbit_moment_polytope,
    product,
    proj_point,
    verdict_to_json,
)
from gitkit import stability
from test_polytopes import _ref_rref


def unit(v):
    n = math.sqrt(sum(float(c) ** 2 for c in v))
    return tuple(float(c) / n for c in v)


# ----------------------------------------------------------------- construction

def test_proj_point_pools_duplicates():
    x = proj_point([(1, 0), (1, 0), (0, 1)], [1, 2, 5])
    assert dict(x.support) == {(1, 0): 3, (0, 1): 5}
    assert x.rank == 2
    assert set(x.weights) == {(1, 0), (0, 1)}


def test_proj_point_rejects_bad_masses():
    with pytest.raises(GitkitError):
        proj_point([(1, 0)], [0])
    with pytest.raises(GitkitError):
        proj_point([(1, 0)], [-1])
    with pytest.raises(GitkitError):
        proj_point([], [])


def test_proj_point_json_roundtrip():
    x = proj_point([(1, 0), (0, 1)], [Fraction(1, 2), 3])
    y = ProjPoint.from_json(x.to_json())
    assert y == x


def test_moment_map_weighted_average():
    x = proj_point([(1, 0), (0, 1)], [3, 1])
    assert moment_map(x) == (Fraction(3, 4), Fraction(1, 4))
    assert moment_map(x, shift=(Fraction(3, 4), 0)) == (0, Fraction(1, 4))


def test_orbit_moment_polytope_is_weight_hull():
    x = proj_point([(0, 0), (1, 0), (0, 1), (Fraction(1, 3), Fraction(1, 3))])
    h = orbit_moment_polytope(x)
    assert set(h.vertices) == {(0, 0), (1, 0), (0, 1)}


# ----------------------------------------------------------- exact classification

def test_classify_four_kinds():
    stable = proj_point([(1, 1), (-1, 0), (0, -1)])
    assert isinstance(classify_stability(stable), Stable)

    poly = proj_point([(1, 1), (-1, -1)])            # hull is a segment through 0
    v = classify_stability(poly)
    assert isinstance(v, Polystable)
    assert v.stabilizer_dim == 1

    ssnp = proj_point([(1, 0), (-1, 0), (0, 1)])     # 0 on the boundary edge
    v = classify_stability(ssnp)
    assert isinstance(v, SemistableNotPolystable)
    assert v.jh_face == ((-1, 0), (1, 0))

    unst = proj_point([(1, 0), (1, 1)])
    v = classify_stability(unst)
    assert isinstance(v, Unstable)
    assert v.lam_star == (-1, 0)
    assert v.slope_sq == 1
    assert v.slope == -1.0


def test_verdict_json():
    assert verdict_to_json(Stable()) == {"verdict": "Stable"}
    js = verdict_to_json(classify_stability(proj_point([(1, 0), (1, 1)])))
    assert js["verdict"] == "Unstable"
    assert js["lam_star"] == ["-1", "0"]


def test_nearest_point_cases():
    p, ns = nearest_point_of_hull([(1, 0), (0, 1)])
    assert p == (Fraction(1, 2), Fraction(1, 2))
    assert ns == Fraction(1, 2)
    p, ns = nearest_point_of_hull([(2, 0), (3, 1)])
    assert p == (2, 0) and ns == 4
    p, ns = nearest_point_of_hull([(1, 1), (-1, -1)])
    assert p == (0, 0) and ns == 0
    p, ns = nearest_point_of_hull([(3, 4)])
    assert p == (3, 4) and ns == 25


def test_nearest_point_interior_projection():
    # projection lands strictly inside a facet
    p, ns = nearest_point_of_hull([(1, -1), (1, 1), (5, 0)])
    assert p == (1, 0) and ns == 1


def test_nearest_point_cache_is_bounded():
    # classify_stability and then max_destabilizing on one point, as a caller
    # asking for the verdict and the destabilizer does: the second is a hit
    x = proj_point([(7, 1), (5, 3), (6, 6)])
    classify_stability(x)
    hits = stability._nearest_point.cache_info().hits
    max_destabilizing(x)
    info = stability._nearest_point.cache_info()
    assert info.hits == hits + 1
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_max_destabilizing_matches_classify():
    x = proj_point([(2, 1), (1, 2)])
    worst = max_destabilizing(x)
    assert worst is not None
    assert worst.lam_star == (Fraction(-3, 2), Fraction(-3, 2))
    assert max_destabilizing(proj_point([(1, 0), (-1, 0)])) is None


def test_hm_slope_exact_comparison():
    x = proj_point([(1, 0), (0, 2)])
    s1 = hm_slope(x, (1, 0))
    s2 = hm_slope(x, (0, 1))
    assert s1.num == 1 and s1.lam_normsq == 1
    assert s2.num == 2
    assert s1.cmp(s2) == -1 and s2.cmp(s1) == 1 and s1.cmp(s1) == 0
    # scaling the direction leaves the normalized slope fixed
    assert s1.cmp(hm_slope(x, (7, 0))) == 0
    assert abs(s2.value - 2.0) < 1e-12
    with pytest.raises(GitkitError):
        hm_slope(x, (0, 0))


def test_hm_slope_negative_ordering():
    x = proj_point([(-2, 0), (-1, -3)])
    a = hm_slope(x, (1, 0))     # max pairing -1
    b = hm_slope(x, (2, 0))     # same direction, same normalized value
    assert a.cmp(b) == 0
    c = hm_slope(x, (1, 1))     # max pairing -2 over sqrt(2)
    assert a.cmp(c) == 1 and c.cmp(a) == -1


def test_associated_graded_keeps_top_stratum():
    x = proj_point([(1, 0), (0, 1), (1, 1)], [1, 2, 3])
    g = associated_graded(x, (1, 0))
    assert dict(g.support) == {(1, 0): 1, (1, 1): 3}


def test_jordan_holder_cone():
    ssnp = proj_point([(1, 0), (-1, 0), (0, 1)])
    cone = jordan_holder_cone(ssnp)
    assert cone == ((0, -1),)
    assert jordan_holder_cone(proj_point([(1, 0), (-1, 0), (0, 1), (0, -1)])) == ()
    with pytest.raises(GitkitError):
        jordan_holder_cone(proj_point([(1, 0), (1, 1)]))


def test_graded_limit_along_jh_direction_is_polystable():
    ssnp = proj_point([(1, 0), (-1, 0), (0, 1)])
    for lam in jordan_holder_cone(ssnp):
        g = associated_graded(ssnp, lam)
        v = classify_stability(g)
        assert isinstance(v, (Stable, Polystable))


def test_critical_types_square():
    # symmetric square: origin plus edge midpoints plus vertices
    types = critical_types([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    assert (0, 0) in types
    assert (1, 0) in types and (0, -1) in types
    assert (1, 1) in types
    assert len(types) == 9


def test_critical_types_caps():
    with pytest.raises(GitkitError):
        critical_types([(i, 0) for i in range(13)])


def test_product_segre():
    x = proj_point([(1, 0), (0, 1)])
    y = proj_point([(0, 0), (1, 1)], [2, 3])
    z = product(x, y)
    assert dict(z.support) == {(1, 0): 2, (0, 1): 2, (2, 1): 3, (1, 2): 3}
    with pytest.raises(GitkitError):
        product(x, proj_point([(1,)]))


# -------------------------------------------------------------------- the flow

def test_kempf_ness_value_and_gradient():
    x = proj_point([(1, 0), (-1, 0)])
    val, grad = kempf_ness(x, (0, 0))
    assert abs(val - 0.5 * math.log(2.0)) < 1e-12
    assert abs(grad[0]) < 1e-12 and abs(grad[1]) < 1e-12


def test_kempf_ness_gradient_matches_finite_differences():
    x = proj_point([(1, 0), (0, 2), (-1, -1)], [1, 2, 3])
    h = 1e-6
    for xi in [(0.0, 0.0), (0.3, -0.7), (-1.1, 0.4)]:
        _, grad = kempf_ness(x, xi)
        for k in range(2):
            up = list(xi)
            dn = list(xi)
            up[k] += h
            dn[k] -= h
            fd = (kempf_ness(x, up)[0] - kempf_ness(x, dn)[0]) / (2 * h)
            assert abs(grad[k] - fd) < 1e-6


def test_flow_converges_on_stable_point():
    x = proj_point([(1, 1), (-1, 0), (0, -1)])
    out = minimize_kempf_ness(x)
    assert out.outcome == "Converged"
    assert out.residual < 1e-8


def test_flow_escapes_on_unstable_point():
    x = proj_point([(1, 0), (2, 1), (Fraction(3, 2), Fraction(-1, 3))])
    out = minimize_kempf_ness(x)
    exact = max_destabilizing(x)
    assert out.outcome == "Escaped"
    lam_hat = unit(exact.lam_star)
    err = math.sqrt(sum((a - b) ** 2 for a, b in zip(out.direction, lam_hat)))
    assert err < 1e-6
    assert abs(out.slope - exact.slope) < 1e-9


def test_flow_handles_degenerate_destabilizing_face():
    # nearest point sits at a vertex of the face the flow equilibrates on
    x = proj_point([(1, 0), (1, 1)])
    out = minimize_kempf_ness(x)
    assert out.outcome == "Escaped"
    assert abs(out.direction[0] + 1.0) < 1e-8
    assert abs(out.direction[1]) < 1e-8
    assert abs(out.slope + 1.0) < 1e-8


def test_flow_respects_initial_point():
    x = proj_point([(1, 1), (-1, 0), (0, -1)])
    out = minimize_kempf_ness(x, xi0=(5.0, -3.0))
    assert out.outcome == "Converged"


def test_flow_exact_vs_float_random_supports():
    rng = random.Random(2024)
    for _ in range(25):
        r = rng.randint(1, 3)
        m = rng.randint(2, 6)
        ws = [tuple(Fraction(rng.randint(-40, 40), 20) for _ in range(r))
              for _ in range(m)]
        x = proj_point(ws)
        verdict = classify_stability(x)
        out = minimize_kempf_ness(x, tol=1e-7)
        if isinstance(verdict, Unstable):
            assert out.outcome == "Escaped"
            lam_hat = unit(verdict.lam_star)
            err = math.sqrt(sum((a - b) ** 2
                                for a, b in zip(out.direction, lam_hat)))
            assert err < 1e-4
            assert abs(out.slope - verdict.slope) < 1e-6
        elif isinstance(verdict, (Stable, Polystable)):
            assert out.outcome == "Converged"
            assert out.residual < 1e-7


# ------------------------------- integer Gram solve vs the Fraction Gram solve
#
# The Fraction solve below is the previous `_project_origin_affine`, kept
# verbatim as the reference: the integer solve must give the same projection
# and the same affine coefficients.

def _reference_project_origin_affine(points):
    q0 = points[0]
    vecs = [wsub(q, q0) for q in points[1:]]
    m = len(vecs)
    if m == 0:
        return q0, (Fraction(1),)
    gram = [[Fraction(wdot(vecs[i], vecs[j])) for j in range(m)] for i in range(m)]
    rhs = [-Fraction(wdot(vecs[i], q0)) for i in range(m)]
    # solve gram . a = rhs; singular gram means dependent points
    aug = [gram[i] + [rhs[i]] for i in range(m)]
    red, pivots = _ref_rref(aug)
    if len(pivots) != m or m in pivots:
        return None
    a = [red[i][m] for i in range(m)]
    p = q0
    for ai, v in zip(a, vecs):
        p = wadd(p, tuple(rat(ai * Fraction(c)) for c in v))
    coeffs = (Fraction(1) - sum(a),) + tuple(a)
    return p, coeffs


_COORD = st.one_of(st.integers(-6, 6),
                   st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4)))


@st.composite
def _subsets(draw):
    """Up to rank + 2 points of rank 1-4: general, on a random affine line or
    plane (affinely dependent beyond 2 or 3 points), some of them repeated."""
    r = draw(st.integers(1, 4))
    vec = st.tuples(*[_COORD] * r)
    size = draw(st.integers(1, r + 2))
    kind = draw(st.sampled_from(["general", "line", "plane"]))
    if kind == "general":
        pts = [draw(vec) for _ in range(size)]
    else:
        base = draw(vec)
        gens = [draw(vec) for _ in range(1 if kind == "line" else 2)]
        pts = [tuple(b + sum(c * g[i] for c, g in zip(draw(st.tuples(*[_COORD] * len(gens))),
                                                      gens))
                     for i, b in enumerate(base)) for _ in range(size)]
    pts += [pts[i] for i in draw(st.lists(st.integers(0, len(pts) - 1), max_size=1))]
    return tuple(tuple(rat(x) for x in p) for p in draw(st.permutations(pts)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_subsets())
def test_project_origin_affine_matches_fraction_reference(pts):
    got = stability._project_origin_affine(pts)
    assert repr(got) == repr(_reference_project_origin_affine(pts)), pts
