"""Torus stability: exact classification against the numerical flow.

classify_stability and nearest_point_of_hull run on exact rationals;
minimize_kempf_ness runs on floats.  Each side is tested alone and then the
two are played against each other on random supports.
"""

import itertools
import json
import math
import os
import random
import runpy
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gitkit.lie import GitkitError, rat, wadd, wdot, weight, wneg, wnorm_sq, wsub
from gitkit.polytopes import hull
from gitkit.stability import (
    ARMIJO,
    BACKTRACK,
    ESCAPE_RADIUS,
    INIT_STEP,
    Converged,
    Escaped,
    HMSlope,
    Polystable,
    ProjPoint,
    SemistableNotPolystable,
    Stable,
    Unstable,
    _certified_nearest,
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
    # critical types read the projections directly: no entry of the cache
    # the verdict and the destabilizer share is touched or evicted
    critical_types([(1, 0, 2), (0, 1, -1), (-1, -1, 0), (2, 2, 2), (0, 0, 1), (3, -1, 0)])
    assert stability._nearest_point.cache_info() == info


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
    assert s1.value < s2.value
    # scaling the direction leaves the normalized slope fixed
    assert hm_slope(x, (7, 0)).value == s1.value
    assert abs(s2.value - 2.0) < 1e-12
    with pytest.raises(GitkitError):
        hm_slope(x, (0, 0))


def test_wrong_length_direction_is_rank_mismatch():
    x = proj_point([(1, 0), (0, 1), (-1, -1)])
    for call in (lambda: hm_slope(x, (1,)), lambda: associated_graded(x, (1,)),
                 lambda: moment_map(x, shift=(1,))):
        with pytest.raises(GitkitError) as e:
            call()
        assert e.value.code == "rank_mismatch"


def test_hm_slope_negative_ordering():
    x = proj_point([(-2, 0), (-1, -3)])
    a = hm_slope(x, (1, 0))     # max pairing -1
    b = hm_slope(x, (2, 0))     # same direction, same normalized value
    assert a.value == b.value
    c = hm_slope(x, (1, 1))     # max pairing -2 over sqrt(2)
    assert c.value < a.value


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


def test_jordan_holder_cone_needs_no_nearest_point(monkeypatch):
    # the hull alone decides: an unstable point is refused without a search
    # for its destabilizer
    def refuse(weights):
        raise AssertionError("nearest point searched")
    monkeypatch.setattr(stability, "nearest_point_of_hull", refuse)
    with pytest.raises(GitkitError) as exc:
        jordan_holder_cone(proj_point([(1, 0), (1, 1)]))
    assert exc.value.code == "unstable"


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


@pytest.mark.parametrize("call", [nearest_point_of_hull, critical_types])
@pytest.mark.parametrize("weights, code", [
    ([], "empty_hull"),
    ([(1, 0), (0,)], "rank_mismatch"),
    ([(1, 0), (0, 1, 2)], "rank_mismatch"),
], ids=["none", "lengths-2-1", "lengths-2-3"])
def test_bad_weight_sets_are_refused(call, weights, code):
    with pytest.raises(GitkitError) as exc:
        call(weights)
    assert exc.value.code == code
    if code == "rank_mismatch":
        assert exc.value.message == "hull points have mixed lengths"


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


def test_flow_converts_its_data_once(monkeypatch):
    calls = []
    real = stability._float_data
    monkeypatch.setattr(stability, "_float_data", lambda x: calls.append(x) or real(x))
    monkeypatch.setattr(stability, "kempf_ness", None)
    x = proj_point([(1, 0), (2, 1), (Fraction(3, 2), Fraction(-1, 3))])
    assert minimize_kempf_ness(x).outcome == "Escaped"
    assert minimize_kempf_ness(proj_point([(1, 1), (-1, 0), (0, -1)])).outcome == "Converged"
    assert len(calls) == 2


@pytest.mark.parametrize("tol", [0, 0.0, -1, float("nan"), float("inf"), True, "1e-6"])
def test_flow_rejects_tol_that_is_not_positive(tol):
    # a zero gradient would still run all max_iter iterations under tol = 0
    with pytest.raises(GitkitError) as exc:
        minimize_kempf_ness(proj_point([(1, 0), (0, 1), (-1, -1)]), tol=tol, max_iter=2000)
    assert exc.value.code == "bad_input"
    assert exc.value.context == {"tol": repr(tol)}


@pytest.mark.parametrize("max_iter", [0, -3, 2.5, True, "10", None])
def test_flow_rejects_max_iter_that_is_not_a_positive_integer(max_iter):
    with pytest.raises(GitkitError) as exc:
        minimize_kempf_ness(proj_point([(1, 0), (0, 1), (-1, -1)]), max_iter=max_iter)
    assert exc.value.code == "bad_input"
    assert exc.value.context == {"max_iter": repr(max_iter)}


def test_flow_builds_gradient_once_per_accepted_step(monkeypatch):
    # the pinned thin-simplex point: every Armijo trial evaluates psi's value,
    # only the start and the accepted steps build masses and gradient
    x = proj_point([(Fraction(-3, 4), Fraction(-7, 8), Fraction(5, 8)), (Fraction(1, 2), 1, -1),
                    (1, 1, Fraction(-1, 2)), (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2))],
                   [4, 4, 1, 2])
    counts = {"_psi_value": 0, "_psi_gradient": 0}
    for name in counts:
        real = getattr(stability, name)

        def counted(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(stability, name, counted)
    out = minimize_kempf_ness(x, tol=1e-6)
    assert out.outcome == "Converged" and out.iterations == 4324
    assert counts == {"_psi_value": 7608, "_psi_gradient": 4324}
    assert repr(out) == repr(_ref_minimize_kempf_ness(x, tol=1e-6))


def test_flow_respects_initial_point():
    x = proj_point([(1, 1), (-1, 0), (0, -1)])
    out = minimize_kempf_ness(x, xi0=(5.0, -3.0))
    assert out.outcome == "Converged"


@pytest.mark.parametrize("x, xi0, residual", [
    # a unit step is below the last bit of xi0, so no trial moves xi
    (proj_point([(1, 0), (-1, 0)]), (1e200, 0), 1.0),
    # polystable, but from about iteration 100 the accepted steps leave xi as it is
    (proj_point([(10**6, 0), (-1, 0)]), None, 1.233427792235453e-06),
])
def test_flow_stalls_on_steps_that_leave_xi_unchanged(x, xi0, residual):
    start = time.perf_counter()
    with pytest.raises(GitkitError) as exc:
        minimize_kempf_ness(x, xi0=xi0)
    assert time.perf_counter() - start < 1.0
    assert exc.value.code == "line_search_stalled"
    assert exc.value.context == {"residual": residual}


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


# ------------------------------- critical types: positive projections vs subsets
#
# The subset walk below is the previous `critical_types`, and the subset
# scan the previous `_nearest_point`, kept verbatim apart from the _ref_
# names, the `stability.` prefix and `contains_relint(p)`, written as
# `contains(p) and not active_facets(p)`.  The walk runs a nearest point and a hull for each of the 2^n
# subsets, so the drawn sets stay small: up to 12 weights in rank 1 and
# up to 7 in ranks 2-4.

def _ref_critical_types(weights) -> set:
    """Candidate critical values of the squared moment norm: for each subset
    of weights, the hull point nearest the origin, kept when it lies in the
    subset's relative interior."""
    pts = tuple(sorted({weight(w) for w in weights}))
    r = len(pts[0])
    if len(pts) > 12 or r > 4:
        raise GitkitError("too_large", "critical type scan capped at 12 weights, rank 4",
                          {"weights": len(pts), "rank": r})
    out = set()
    for size in range(1, len(pts) + 1):
        for sub in itertools.combinations(pts, size):
            p, _ns = nearest_point_of_hull(sub)
            h = hull(sub)
            if h.contains(p) and not h.active_facets(p):
                out.add(p)
    return out


def _ref_nearest_point(pts: tuple) -> tuple:
    r = len(pts[0])
    best = None
    for size in range(1, min(len(pts), r + 1) + 1):
        for sub in itertools.combinations(pts, size):
            res = stability._project_origin_affine(sub)
            if res is None:
                continue
            p, coeffs = res
            if any(c < 0 for c in coeffs):
                continue
            ns = Fraction(wnorm_sq(p))
            if best is None or ns < best[1] or (ns == best[1] and p < best[0]):
                best = (p, ns)
    return best


def _weight_sets(rng, count):
    """Weight sets of rank 1-4, integer or p/q: general, mirrored through the
    origin, or on an affine line (many ties among the pairings)."""
    for i in range(count):
        r = 1 + i % 4
        n = rng.randint(1, 12 if r == 1 else 7)
        def coord():
            if rng.random() < 0.5:
                return rng.randint(-3, 3)
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        kind = rng.choice(["general", "mirrored", "line"])
        if kind == "line":
            base, step = [coord() for _ in range(r)], [coord() for _ in range(r)]
            ws = [tuple(rat(b + t * d) for b, d in zip(base, step))
                  for t in (rng.randint(-3, 3) for _ in range(n))]
        elif kind == "mirrored":
            half = [tuple(rat(coord()) for _ in range(r)) for _ in range(max(1, n // 2))]
            ws = half + [wneg(w) for w in half]
        else:
            ws = [tuple(rat(coord()) for _ in range(r)) for _ in range(n)]
        yield ws


def test_critical_types_match_subset_walk():
    for ws in _weight_sets(random.Random(16), 64):
        types = critical_types(ws)
        assert types == _ref_critical_types(ws), ws
        pts = tuple(sorted(set(ws)))
        got = nearest_point_of_hull(ws)
        assert repr(got) == repr(_ref_nearest_point(pts)), ws
        assert got[0] == min(types, key=lambda p: (wnorm_sq(p), p))
    # twelve weights are within the cap
    assert len(critical_types([(i, 0) for i in range(12)])) == 12


def test_critical_types_are_kirwan_ness_critical():
    # beyond the subset walk's reach: each beta is the point nearest the
    # origin of the hull of the weights on <w, beta> = |beta|^2
    rng = random.Random(4)
    ws = [tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(12)]
    types = critical_types(ws)
    assert len(types) == 322        # as the subset walk gives, in 40 s
    for beta in types:
        level = [w for w in ws if wdot(w, beta) == wnorm_sq(beta)]
        assert nearest_point_of_hull(level)[0] == beta, beta
    assert nearest_point_of_hull(ws)[0] == min(types, key=lambda p: (wnorm_sq(p), p))


# ------------------------------- nearest point: Wolfe's method vs the projection scan
#
# `_ref_least_projection` is the previous `_nearest_point` body, the least
# (norm^2, p) of the positive projections, kept verbatim apart from the name
# and the `stability.` prefix.  It makes n^(r+1) eliminations, so it checks
# draws of up to 14 rank-4 weights; larger draws are checked against the
# exact optimality certificate below.

def _ref_least_projection(pts: tuple) -> tuple:
    ns, p = min((Fraction(wnorm_sq(q)), q) for q in stability._positive_projections(pts))
    return p, ns


def _unstable_weights(rng, n, r=4):
    """n integer weights in [-5, 5]^r, all strictly on one side of a random
    hyperplane through the origin, so the origin lies outside their hull."""
    v = (0,) * r
    while not any(v):
        v = tuple(rng.randint(-3, 3) for _ in range(r))
    ws = []
    while len(ws) < n:
        w = tuple(rng.randint(-5, 5) for _ in range(r))
        if wdot(w, v) > 0:
            ws.append(w)
    return ws


def _certify_nearest(ws, p, ns):
    """p is the point of conv(ws) nearest the origin: no weight lies below
    the level <w, p> = |p|^2, and p is the projection of the origin onto
    some affinely independent weights on that level (the Fraction reference
    solve), with positive barycentric coefficients."""
    assert ns == wnorm_sq(p) and all(wdot(w, p) >= ns for w in ws)
    level = sorted({weight(w) for w in ws if wdot(w, p) == ns})
    for size in range(1, len(p) + 2):
        for sub in itertools.combinations(level, size):
            res = _reference_project_origin_affine(sub)
            if res is not None and res[0] == p and all(c > 0 for c in res[1]):
                return
    raise AssertionError(f"{p} is not a positive projection onto its level")


def test_certified_nearest_refuses_a_face_through_the_origin():
    # a polystable pair: the face the masses pick holds the origin, so no
    # destabilizing direction is certified
    assert _certified_nearest([(1.0, 0.0), (-1.0, 0.0)], [0.5, 0.5]) is None


def test_nearest_point_matches_least_projection():
    rng = random.Random(17)
    draws = list(_weight_sets(rng, 64))
    draws += [_unstable_weights(rng, n) for n in range(1, 15)]
    draws += [[tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(n)]
              for n in (10, 12, 14)]
    for ws in draws:
        pts = tuple(sorted(set(ws)))
        got = stability._nearest_point.__wrapped__(pts)
        assert repr(got) == repr(_ref_least_projection(pts)), ws


def test_nearest_point_is_certified_on_large_draws():
    rng = random.Random(40)
    for n in range(15, 41):
        ws = _unstable_weights(rng, n)
        p, ns = nearest_point_of_hull(ws)
        assert ns > 0
        _certify_nearest(ws, p, ns)


@pytest.mark.parametrize("ws, expect", [
    ([(1, 2, 3), (2, 1, 3), (-1, 4, 3), (4, -1, 3), (0, 3, 3)],
     ((Fraction(3, 2), Fraction(3, 2), 3), Fraction(27, 2))),
    ([(2, -1, 0, 1), (-4, 2, 0, -2), (6, -3, 0, 3), (-2, 1, 0, -1)], ((0, 0, 0, 0), 0)),
    ([(3, 0), (5, 0), (9, 0), (4, 0)], ((3, 0), 9)),
    ([(2, -1), (-2, 1), (1, 3), (0, 5)], ((0, 0), 0)),
    ([(1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, 2, 1), (1, 3, 2)], ((0, 0, 0), 0)),
    ([(3, -1, 2, Fraction(1, 2))], ((3, -1, 2, Fraction(1, 2)), Fraction(57, 4))),
    ([(0, 0)], ((0, 0), 0)),
    ([(1, 1), (2, 0), (1, 1), (0, 2), (2, 0)], ((1, 1), 2)),
], ids=["line-3d", "line-through-origin", "line-axis", "origin-on-edge",
        "origin-on-edge-3d", "one-weight", "one-zero-weight", "pooled-duplicates"])
def test_nearest_point_degenerate_hulls(ws, expect):
    got = nearest_point_of_hull(ws)
    assert got == expect
    pts = tuple(sorted(set(ws)))
    assert repr(got) == repr(_ref_least_projection(pts)) == repr(_ref_nearest_point(pts))
    # a point whose weights repeat pools their masses, not their geometry
    assert max_destabilizing(proj_point(ws, [1] * len(ws))) == (
        None if got[1] == 0 else Unstable(lam_star=wneg(got[0]), slope_sq=got[1]))


def test_nearest_point_work_is_bounded(monkeypatch):
    # the projection scan made 760 098 eliminations on 40 rank-4 weights
    calls = []
    project = stability._project_origin_affine

    def counted(points):
        calls.append(len(points))
        return project(points)
    monkeypatch.setattr(stability, "_project_origin_affine", counted)
    stability._nearest_point.cache_clear()
    x = proj_point(_unstable_weights(random.Random(17), 40))
    v = classify_stability(x)
    assert isinstance(v, Unstable) and max_destabilizing(x) == v
    assert 0 < len(calls) <= 200 and max(calls) <= x.rank + 1


def test_dependent_corral_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(stability, "_project_origin_affine", lambda points: None)
    with pytest.raises(GitkitError) as err:
        stability._nearest_point.__wrapped__(((1, -1), (1, 1), (5, 0)))
    assert err.value.code == "internal"


# ------------------------------------------------ pins and the earlier flow code
#
# tests/stability_pinned.json holds the repr of every result on three fixed
# input sets, recorded from the code before the float side was folded into
# one kernel: c08's 100 points, a catalog of points built like the stability
# benchmark's (planted verdicts, weights at the c08 scale) and the stdout of
# scripts/descent_demo.py --trials 40.  A float that changes in its last bit
# changes a repr.

PINS = json.loads(Path(__file__).with_name("stability_pinned.json").read_text())
DEMO = Path(__file__).resolve().parents[1] / "scripts" / "descent_demo.py"


def _outcome(f, *args, **kw):
    """repr of a result, or the code and context of the GitkitError it raised."""
    try:
        return repr(f(*args, **kw))
    except GitkitError as exc:
        return f"GitkitError({exc.code!r}, {exc.context!r})"


def _c08_points():
    """The 100 points of test_c08, drawn the same way."""
    rng = random.Random(7)
    for _ in range(100):
        r = rng.randint(1, 3)
        m = rng.randint(2, 8)
        weights = [tuple(Fraction(rng.randint(-1500, 1500), 1000)
                         for _ in range(r)) for _ in range(m)]
        masses = [Fraction(rng.randint(1, 2000), 1000) for _ in range(m)]
        yield proj_point(weights, masses)


def _catalog_outcomes(x, flow):
    zero = (0,) * x.rank
    out = {"verdict": _outcome(classify_stability, x),
           "destab": _outcome(max_destabilizing, x),
           "jh": _outcome(jordan_holder_cone, x),
           "kn": _outcome(kempf_ness, x, zero)}
    if flow:
        out["flow"] = _outcome(minimize_kempf_ness, x, tol=1e-6, max_iter=10 ** 5)
    return out


def test_pinned_c08_points():
    got = [{"verdict": _outcome(classify_stability, x),
            "flow": _outcome(minimize_kempf_ness, x, tol=1e-6, max_iter=10 ** 5)}
           for x in _c08_points()]
    assert got == PINS["c08"]


def test_pinned_stability_catalog():
    for case in PINS["catalog"]:
        x = proj_point([tuple(Fraction(c) for c in w) for w in case["weights"]],
                       [Fraction(c) for c in case["masses"]])
        assert _catalog_outcomes(x, "flow" in case["out"]) == case["out"], case["weights"]


def test_pinned_descent_demo_stdout(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(DEMO), "--trials", "40"])
    runpy.run_path(str(DEMO), run_name="__main__")
    assert capsys.readouterr().out == PINS["descent_demo_trials_40"]


# Makes every descent return a fixed Converged result, then runs the demo:
# an unstable trial must then stop it with a nonzero exit, also under -O.
WRONG_DESCENT = """
import runpy, sys
from gitkit import stability
stability.minimize_kempf_ness = lambda x, **kw: stability.Converged((0.0,), 0.0, 0.0, 1)
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def test_descent_demo_checks_survive_python_O(tmp_path):
    src = str(Path(stability.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    args = [str(DEMO), "--trials", "5"]
    ok = subprocess.run([sys.executable, "-O", *args], capture_output=True, text=True,
                        cwd=tmp_path, env=env, timeout=300)
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.endswith("agreed on every trial\n")
    bad = subprocess.run([sys.executable, "-O", "-c", WRONG_DESCENT, *args],
                         capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300)
    assert bad.returncode == 1
    assert "descent gave Converged" in bad.stderr
    assert "agreed on every trial" not in bad.stdout


# The flow and the exact verdicts as they were before the one-kernel change,
# verbatim apart from the _ref_ names and the relative-interior test, which
# reads the active facets; the current code must give the same repr on every
# drawn point.

def _ref_float_data(x: ProjPoint):
    ws = [[float(c) for c in w] for w, _ in x.support]
    cs = [float(c) for _, c in x.support]
    return ws, cs


def _ref_soft_state(ws, cs, xi):
    r = len(xi)
    exps = [math.log(c) - 2.0 * sum(w[k] * xi[k] for k in range(r))
            for w, c in zip(ws, cs)]
    m = max(exps)
    raw = [math.exp(e - m) for e in exps]
    z = sum(raw)
    value = 0.5 * (m + math.log(z))
    masses = [v / z for v in raw]
    return value, masses


def _ref_kempf_ness(x: ProjPoint, xi) -> tuple[float, tuple]:
    ws, cs = _ref_float_data(x)
    xi = [float(v) for v in xi]
    r = x.rank
    if len(xi) != r:
        raise GitkitError("rank_mismatch", "direction length does not match rank",
                          {"rank": r, "xi": len(xi)})
    value, masses = _ref_soft_state(ws, cs, xi)
    grad = tuple(-sum(ws[j][k] * masses[j] for j in range(len(ws)))
                 for k in range(r))
    return value, grad


def _ref_minimize_kempf_ness(x: ProjPoint, xi0=None, tol: float = 1e-8,
                             max_iter: int = 100000):
    r = x.rank
    xi = tuple(float(v) for v in (xi0 if xi0 is not None else (0.0,) * r))
    ws, cs = _ref_float_data(x)
    check_at = 2.0 * ESCAPE_RADIUS
    val, grad = _ref_kempf_ness(x, xi)
    for it in range(1, max_iter + 1):
        gn = math.sqrt(sum(g * g for g in grad))
        if gn < tol:
            return Converged(xi=xi, value=val, residual=gn, iterations=it)
        radius = math.sqrt(sum(v * v for v in xi))
        if radius >= check_at:
            _, masses = _ref_soft_state(ws, cs, xi)
            p = _certified_nearest(ws, masses)
            if p is not None:
                pn = math.sqrt(sum(v * v for v in p))
                direction = tuple(-v / pn + 0.0 for v in p)
                return Escaped(direction=direction, slope=-pn, iterations=it)
            check_at *= 2.0
        step = INIT_STEP
        while True:
            cand = tuple(a - step * g for a, g in zip(xi, grad))
            cval, cgrad = _ref_kempf_ness(x, cand)
            if cval <= val - ARMIJO * step * gn * gn:
                xi, val, grad = cand, cval, cgrad
                break
            step *= BACKTRACK
            if step < 1e-18:
                if gn < 10 * tol:
                    return Converged(xi=xi, value=val, residual=gn, iterations=it)
                raise GitkitError("line_search_stalled",
                                  "descent line search stalled above tolerance",
                                  {"residual": gn})
    raise GitkitError("descent_exhausted",
                      f"no verdict within {max_iter} iterations",
                      {"residual": math.sqrt(sum(g * g for g in grad))})


def _ref_classify_stability(x: ProjPoint):
    h = hull(x.weights)
    zero = (0,) * x.rank
    if not h.contains(zero):
        return max_destabilizing(x)
    if not h.active_facets(zero):    # zero lies in the relative interior
        if h.dim == x.rank:
            return Stable()
        return Polystable(stabilizer_dim=x.rank - h.dim)
    active = h.active_facets(zero)
    verts = tuple(sorted(
        v for v in h.vertices
        if all(wdot(h.facets[i][0], v) == h.facets[i][1] for i in active)))
    return SemistableNotPolystable(jh_face=verts)


def _ref_jordan_holder_cone(x: ProjPoint) -> tuple:
    verdict = _ref_classify_stability(x)
    if isinstance(verdict, Unstable):
        raise GitkitError("unstable", "unstable points have no polystable degeneration", {})
    if isinstance(verdict, (Stable, Polystable)):
        return ()
    h = hull(x.weights)
    zero = (0,) * x.rank
    return tuple(sorted(wneg(h.facets[i][0]) for i in h.active_facets(zero)))


@st.composite
def _c08_scale_points(draw):
    """Points of rank 1-3 with 2-8 weights at the c08 scale: random
    thousandths (almost always stable or unstable), or halves with some
    weights mirrored through the origin (polystable and strictly semistable
    points too)."""
    r = draw(st.integers(1, 3))
    m = draw(st.integers(2, 8))
    if draw(st.booleans()):
        coord = st.integers(-1500, 1500).map(lambda n: Fraction(n, 1000))
    else:
        coord = st.integers(-3, 3).map(lambda n: Fraction(n, 2))
    ws = [tuple(draw(coord) for _ in range(r)) for _ in range(m)]
    ws += [wneg(ws[i]) for i in draw(st.lists(st.integers(0, m - 1), max_size=3))]
    cs = [Fraction(draw(st.integers(1, 2000)), 1000) for _ in ws]
    xi = tuple(draw(st.floats(-3.0, 3.0)) for _ in range(r))
    return proj_point(ws, cs), xi


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_c08_scale_points())
def test_flow_and_verdicts_match_earlier_code(case):
    x, xi = case
    verdict = _ref_classify_stability(x)
    assert repr(classify_stability(x)) == repr(verdict)
    assert _outcome(jordan_holder_cone, x) == _outcome(_ref_jordan_holder_cone, x)
    assert repr(kempf_ness(x, xi)) == repr(_ref_kempf_ness(x, xi))
    assert _outcome(kempf_ness, x, xi[:-1]) == _outcome(_ref_kempf_ness, x, xi[:-1])
    if not isinstance(verdict, SemistableNotPolystable):    # these always exhaust
        # a small max_iter compares a descent_exhausted outcome cheaply
        for start in (None, xi):
            assert (_outcome(minimize_kempf_ness, x, start, tol=1e-6, max_iter=300)
                    == _outcome(_ref_minimize_kempf_ness, x, start, tol=1e-6, max_iter=300))


# the origin off the affine hull, and lower-dimensional hulls through it
@pytest.mark.parametrize("ws", [
    [(1, 1), (1, -1)], [(1, 0), (0, 1)], [(2,)], [(0, 0)], [(1, 0), (-1, 0)],
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0)], [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)],
])
def test_verdicts_match_earlier_code_on_lower_dimensional_hulls(ws):
    x = proj_point(ws)
    assert repr(classify_stability(x)) == repr(_ref_classify_stability(x))
    assert _outcome(jordan_holder_cone, x) == _outcome(_ref_jordan_holder_cone, x)
