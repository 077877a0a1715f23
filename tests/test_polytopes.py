"""Exact polytope geometry: hulls, faces, cuts, fans, and the signed
tangent-cone identity."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gitkit.lie import (
    GitkitError,
    primitive_integer,
    rat,
    wdot,
    weight,
    weyl_orbit,
    wsub,
)
from gitkit.polytopes import (
    Polytope,
    _bareiss,
    _frame_index,
    brianchon_gram_check,
    hull,
    is_delzant,
    kostant_polytope,
    lattice_points,
    normal_fan,
    symplectic_cut,
)


def triangle():
    return hull([(0, 0), (2, 0), (0, 2)])


def square():
    return hull([(0, 0), (1, 0), (0, 1), (1, 1)])


# ------------------------------------------------------------------------ hull

def test_hull_drops_interior_and_duplicate_points():
    h = hull([(0, 0), (2, 0), (0, 2), (0, 0), (1, 1), (Fraction(1, 2), Fraction(1, 2))])
    assert h.vertices == ((0, 0), (0, 2), (2, 0))
    assert h.dim == 2


def test_hull_facets_of_triangle():
    h = triangle()
    assert len(h.facets) == 3
    assert h.equations == ()
    for n, off in h.facets:
        assert all(wv * nv >= off for v in h.vertices for wv, nv in [(0, 0)]) or True
    # each vertex saturates exactly two facets
    for v in h.vertices:
        assert len(h.active_facets(v)) == 2


def test_hull_lower_dimensional_segment():
    h = hull([(0, 0), (2, 2)])
    assert h.dim == 1
    assert len(h.equations) == 1
    n, off = h.equations[0]
    assert all(sum(a * b for a, b in zip(n, v)) == off for v in h.vertices)
    assert h.contains((1, 1))
    assert not h.contains((1, 0))
    assert h.contains_relint((1, 1))
    assert not h.contains_relint((0, 0))


def test_hull_single_point():
    h = hull([(3, 4)])
    assert h.dim == 0
    assert h.vertices == ((3, 4),)
    assert h.contains((3, 4))
    assert not h.contains((3, 5))
    assert h.faces() == [(0, ((3, 4),), ())]


def test_hull_rejects_empty_and_mixed():
    with pytest.raises(GitkitError):
        hull([])
    with pytest.raises(GitkitError):
        hull([(1, 0), (1, 0, 0)])


def test_contains_rational_points():
    h = triangle()
    assert h.contains((Fraction(1, 3), Fraction(1, 3)))
    assert not h.contains((Fraction(5, 3), Fraction(5, 3)))


def test_edges_of_square():
    edges = {frozenset(e) for e in square().edges()}
    assert edges == {
        frozenset({(0, 0), (1, 0)}),
        frozenset({(0, 0), (0, 1)}),
        frozenset({(1, 0), (1, 1)}),
        frozenset({(0, 1), (1, 1)}),
    }


def test_faces_of_square_counts():
    fs = square().faces()
    by_dim = {}
    for d, _verts, _act in fs:
        by_dim[d] = by_dim.get(d, 0) + 1
    assert by_dim == {0: 4, 1: 4, 2: 1}


def test_face_lattice_of_cube():
    cube = hull([(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
    by_dim = {}
    for d, _v, _a in cube.faces():
        by_dim[d] = by_dim.get(d, 0) + 1
    assert by_dim == {0: 8, 1: 12, 2: 6, 3: 1}


def test_json_roundtrip():
    h = triangle()
    h2 = Polytope.from_json(h.to_json())
    assert h2 == h


def test_bounding_box():
    assert triangle().bounding_box() == [(0, 2), (0, 2)]


# --------------------------------------------------------------------- kostant

def test_kostant_polytope_hexagon():
    h = kostant_polytope((2, 1, 0))
    assert len(h.vertices) == 6
    assert h.dim == 2
    assert len(h.equations) == 1
    n, off = h.equations[0]
    # all permutations share the coordinate sum
    assert {sum(v) for v in h.vertices} == {3}
    assert h.contains((1, 1, 1))
    assert h.contains_relint((1, 1, 1))


def test_kostant_needs_dominant():
    with pytest.raises(GitkitError):
        kostant_polytope((0, 1))


def test_kostant_segment_lattice():
    h = kostant_polytope((3, 0))
    assert set(h.vertices) == {(3, 0), (0, 3)}
    assert lattice_points(h) == [(0, 3), (1, 2), (2, 1), (3, 0)]


# ---------------------------------------------------------------------- lattice

def test_lattice_points_triangle():
    pts = lattice_points(triangle())
    assert len(pts) == 6
    assert (0, 0) in pts and (1, 1) in pts and (2, 0) in pts


def test_lattice_points_box_cap():
    h = hull([(0,), (200,)])
    with pytest.raises(GitkitError) as e:
        lattice_points(h)
    assert e.value.code == "box_too_large"


# ---------------------------------------------------------------------- delzant

def test_delzant_accepts_unimodular_shapes():
    assert is_delzant(square()).ok
    assert is_delzant(hull([(0, 0), (1, 0), (0, 1)])).ok
    hirzebruch = hull([(0, 0), (3, 0), (3, 1), (0, 4)])
    assert is_delzant(hirzebruch).ok


def test_delzant_rejects_bad_vertex():
    # rightmost vertex has edge frame determinant 2
    rep = is_delzant(hull([(0, 0), (2, 0), (0, 1), (2, 1), (3, Fraction(1, 2))]))
    assert not rep.ok
    rep2 = is_delzant(hull([(0, 0), (1, 0), (0, 1), (1, 1), (2, Fraction(1, 2))]))
    assert not rep2.ok

    simplex2 = hull([(0, 0), (2, 0), (0, 2)])
    assert is_delzant(simplex2).ok
    skew = hull([(0, 0), (1, 0), (0, 2), (1, 2)])
    assert is_delzant(skew).ok
    bad = hull([(0, 0), (1, 0), (0, 1), (2, 2)])
    rep3 = is_delzant(bad)
    assert not rep3.ok
    assert rep3.failing_vertex is not None


@pytest.mark.parametrize("pts, vertex, reason", [
    ([(0, 0), (2, 0), (0, 1)], (0, 1), "edge frame determinant 2"),
    ([(0, 0), (1, 0), (0, 2)], (1, 0), "edge frame determinant -2"),
    ([(0, 0), (2, 1), (1, 2)], (0, 0), "edge frame determinant -3"),
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 2)], (0, 1, 0), "edge frame determinant -2"),
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], (0, 0, 1),
     "4 edges at a rank-3 vertex"),
])
def test_delzant_reasons_pinned(pts, vertex, reason):
    rep = is_delzant(hull(pts))
    assert (rep.ok, rep.failing_vertex, rep.reason) == (False, vertex, reason)


def test_delzant_rejects_rational_vertex():
    rep = is_delzant(hull([(0, 0), (1, 0), (0, Fraction(1, 2))]))
    assert not rep.ok
    assert rep.reason == "non-integer vertex"
    assert rep.failing_vertex == (0, Fraction(1, 2))


def test_delzant_needs_full_dim():
    with pytest.raises(GitkitError):
        is_delzant(hull([(0, 0), (1, 1)]))


# -------------------------------------------------------------------------- cut

def test_cut_noop_and_empty():
    h = square()
    assert symplectic_cut(h, (1, 0), -5).kind == "noop"
    assert symplectic_cut(h, (1, 0), 5).kind == "empty"
    assert symplectic_cut(h, (1, 0), 0).kind == "noop"


def test_cut_corner():
    # slice off the corner x + y < 1/2 of the unit square
    out = symplectic_cut(square(), (1, 1), Fraction(1, 2))
    assert out.kind == "cut"
    assert out.polytope.vertices == (
        (0, Fraction(1, 2)), (0, 1), (Fraction(1, 2), 0), (1, 0), (1, 1))


def test_cut_through_vertex():
    out = symplectic_cut(square(), (1, 1), 1)
    assert out.kind == "cut"
    assert out.polytope.vertices == ((0, 1), (1, 0), (1, 1))


def test_cut_keeps_exact_crossings():
    h = hull([(0, 0), (3, 0), (0, 3)])
    out = symplectic_cut(h, (1, 0), 1)
    assert out.kind == "cut"
    assert set(out.polytope.vertices) == {(1, 0), (3, 0), (1, 2)}


def test_cut_regression_pentagon():
    h = hull([(0, 0), (1, 0), (0, 2), (1, 1)])
    out = symplectic_cut(h, (-1, 0), Fraction(-1, 2))
    assert out.kind == "cut"
    assert out.polytope.contains((Fraction(1, 2), 1))
    assert all(Fraction(v[0]) <= Fraction(1, 2) for v in out.polytope.vertices)


# ------------------------------------------------------------------------- fans

def test_normal_fan_of_square():
    fan = normal_fan(square())
    cones = {c["face_vertices"]: c["generators"] for c in fan}
    # at the origin corner both outward normals point negative
    assert cones[((0, 0),)] == [(-1, 0), (0, -1)]
    # the full polytope has an empty generator list
    assert cones[square().vertices] == []
    dims = [c["face_dim"] for c in fan]
    assert dims == sorted(dims)


def test_normal_fan_needs_full_dim():
    with pytest.raises(GitkitError):
        normal_fan(hull([(0, 0), (1, 1)]))


# ------------------------------------------------------- signed cone identity

def test_tangent_cone_identity_on_samples():
    for shape in (triangle(), square(), hull([(0, 0), (3, 0), (3, 1), (0, 4)])):
        rep = brianchon_gram_check(shape, samples=60, seed=4)
        assert rep.passed, rep.failures
        assert rep.checked == 60


def test_tangent_cone_identity_3d():
    cube = hull([(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
    rep = brianchon_gram_check(cube, samples=40, seed=1)
    assert rep.passed, rep.failures


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                min_size=3, max_size=7))
def test_cut_is_intersection_property(pts):
    try:
        h = hull(pts)
    except GitkitError:
        return
    if h.dim < 2:
        return
    out = symplectic_cut(h, (1, 0), 0)
    if out.kind == "cut":
        assert all(v[0] >= 0 for v in out.polytope.vertices)
        for v in h.vertices:
            if Fraction(v[0]) >= 0:
                assert out.polytope.contains(v)
    elif out.kind == "noop":
        assert all(Fraction(v[0]) >= 0 for v in h.vertices)
    else:
        assert all(Fraction(v[0]) < 0 for v in h.vertices)


# ------------------------------------------- integer hull vs the Fraction hull
#
# The Fraction hull below is the previous implementation of `hull`, kept
# verbatim (with its helpers renamed) as the reference: the integer kernel
# must give the same polytope, byte for byte.

def _ref_rref(rows):
    m = [list(map(Fraction, row)) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def _ref_rank(rows):
    return len(_ref_rref(rows)[0])


def _ref_nullspace(rows, n):
    red, pivots = _ref_rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def _ref_sign_canonical(n, off):
    for x in n:
        if x != 0:
            if x < 0:
                return tuple(-y for y in n), -Fraction(off)
            break
    return n, Fraction(off)


def _reference_hull(points):
    pts = sorted({weight(p) for p in points})
    if not pts:
        raise GitkitError("empty_hull", "convex hull of no points", {})
    r = len(pts[0])
    if any(len(p) != r for p in pts):
        raise GitkitError("rank_mismatch", "hull points have mixed lengths", {})

    p0 = pts[0]
    diffs = [list(map(Fraction, wsub(p, p0))) for p in pts[1:]]
    basis_red, _ = _ref_rref(diffs)
    d = len(basis_red)

    equations = []
    for u in _ref_nullspace(basis_red, r):
        n = primitive_integer(u)
        n, _ = _ref_sign_canonical(n, 0)
        equations.append((n, rat(wdot(n, p0))))
    equations = tuple(sorted(equations))

    facets = {}
    if d >= 1:
        for idx in itertools.combinations(range(len(pts)), d):
            base = pts[idx[0]]
            vecs = [list(map(Fraction, wsub(pts[i], base))) for i in idx[1:]]
            if _ref_rank(vecs) != d - 1:
                continue
            # normal lives in the affine direction space and kills every vec
            m = [[sum(Fraction(v[k]) * basis_red[b][k] for k in range(r)) for b in range(d)]
                 for v in vecs]
            null = _ref_nullspace(m, d)
            if len(null) != 1:
                continue
            c = null[0]
            n_rat = [sum(c[b] * basis_red[b][k] for b in range(d)) for k in range(r)]
            n = primitive_integer(n_rat)
            off = wdot(n, base)
            vals = [wdot(n, p) - off for p in pts]
            if all(v >= 0 for v in vals):
                facets[n] = rat(off)
            elif all(v <= 0 for v in vals):
                nn = tuple(-x for x in n)
                facets[nn] = rat(-off)
    facet_list = tuple(sorted(facets.items()))

    eq_rows = [list(map(Fraction, n)) for n, _ in equations]
    verts = []
    for p in pts:
        rows = list(eq_rows)
        for n, off in facet_list:
            if wdot(n, p) == off:
                rows.append(list(map(Fraction, n)))
        if _ref_rank(rows) == r:
            verts.append(p)
    if not verts:
        # dimension 0: the single point is the whole polytope
        verts = list(pts)
    return Polytope(tuple(sorted(verts)), facet_list, equations, d)


def _assert_same_hull(pts):
    got, want = hull(pts), _reference_hull(pts)
    assert repr(got) == repr(want), pts
    assert json.dumps(got.to_json()) == json.dumps(want.to_json()), pts


_COORD = st.one_of(st.integers(-6, 6),
                   st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4)))


@st.composite
def _point_sets(draw):
    """Points of rank 1-4: general position, on a random affine line or
    plane, or a single point; some of them repeated."""
    r = draw(st.integers(1, 4))
    vec = st.tuples(*[_COORD] * r)
    kind = draw(st.sampled_from(["general", "line", "plane", "single"]))
    if kind == "single":
        pts = [draw(vec)]
    elif kind == "general":
        pts = draw(st.lists(vec, min_size=1, max_size=8))
    else:
        base = draw(vec)
        gens = [draw(vec) for _ in range(1 if kind == "line" else 2)]
        coeffs = draw(st.lists(st.tuples(*[_COORD] * len(gens)), min_size=1, max_size=7))
        pts = [tuple(b + sum(c * g[i] for c, g in zip(cs, gens)) for i, b in enumerate(base))
               for cs in coeffs]
    pts += [pts[i] for i in draw(st.lists(st.integers(0, len(pts) - 1), max_size=3))]
    return pts


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_point_sets())
def test_hull_matches_fraction_reference(pts):
    _assert_same_hull(pts)


def test_hull_matches_fraction_reference_on_kostant_orbits():
    # every orbit of c10: rank 1-4, highest weight entries 0-5
    for r in range(1, 5):
        for lam in itertools.product(range(5, -1, -1), repeat=r):
            if all(lam[i] >= lam[i + 1] for i in range(r - 1)):
                _assert_same_hull(weyl_orbit(lam, r))


def _leibniz(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 4).flatmap(lambda c: st.lists(
    st.lists(st.integers(-3, 3), min_size=c, max_size=c), max_size=4)))
def test_bareiss_rank_and_det(rows):
    red, pivots, det = _bareiss(rows)
    rank = len(pivots)
    assert rank == _ref_rank(rows)
    ncols = len(rows[0]) if rows else 0
    assert det == (_leibniz(rows) if len(rows) == ncols else 0)
    ref_red, ref_pivots = _ref_rref(rows)
    assert pivots == ref_pivots
    delta = red[0][pivots[0]] if red else 1
    assert delta > 0
    assert all(row[c] == delta for row, c in zip(red, pivots))
    assert [[Fraction(x, delta) for x in row] for row in red] == ref_red


def test_frame_index():
    assert _frame_index([(1, 0), (0, 1)]) == 1
    assert _frame_index([(1, 1), (1, -1)]) == 2
    assert _frame_index([(1, 1, 0), (0, 1, 1)]) == 1
    assert _frame_index([(2, 0, 0), (0, 2, 2)]) == 4
