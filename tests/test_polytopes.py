"""Exact polytope geometry: hulls, faces, cuts, fans, and the signed
tangent-cone identity."""

import copy
import itertools
import json
import random
from fractions import Fraction
from math import ceil, floor, gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from gitkit.lie import (
    GitkitError,
    Weight,
    is_dominant,
    primitive_integer,
    rat,
    wdot,
    weight,
    weight_to_json,
    weyl_orbit,
    wsub,
)
from gitkit import polytopes
from gitkit.localization import vertex_sum
from gitkit.polytopes import (
    BGReport,
    CutResult,
    DelzantReport,
    Polytope,
    _bareiss,
    _frame_index,
    _kernel,
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
    assert not h.active_facets((1, 1))      # in the relative interior
    assert h.active_facets((0, 0))          # a vertex: on the relative boundary


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


def test_wrong_length_vector_is_rank_mismatch():
    for call in (lambda: triangle().contains((1,)),
                 lambda: symplectic_cut(triangle(), (1,), 0)):
        with pytest.raises(GitkitError) as e:
            call()
        assert e.value.code == "rank_mismatch"


def test_wrong_length_vector_reports_both_lengths():
    with pytest.raises(GitkitError) as e:
        triangle().contains((1,))
    assert (e.value.code, e.value.message, e.value.context) == (
        "rank_mismatch", "weights have different lengths", {"lengths": [2, 1]})


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
    assert not h.active_facets((1, 1, 1))


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


def test_delzant_answers_the_rank_zero_polytope():
    # no edges: the empty frame has index 1, the empty determinant
    assert _frame_index([]) == 1
    assert is_delzant(hull([()])) == DelzantReport(True, None, "")


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


@pytest.mark.parametrize("samples", [0, -3, 2.0, True, "10"])
def test_tangent_cone_identity_needs_positive_integer_samples(samples):
    with pytest.raises(GitkitError) as e:
        brianchon_gram_check(triangle(), samples=samples)
    assert e.value.code == "bad_input"


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
def _point_sets(draw, max_rank=4, min_points=1, max_points=8):
    """Points of rank 1 to max_rank: general position, on a random affine
    line or plane (min_points to max_points of them), or a single point; some
    of them repeated."""
    r = draw(st.integers(1, max_rank))
    vec = st.tuples(*[_COORD] * r)
    kind = draw(st.sampled_from(["general", "line", "plane", "single"]))
    if kind == "single":
        pts = [draw(vec)]
    elif kind == "general":
        pts = draw(st.lists(vec, min_size=min_points, max_size=max_points))
    else:
        base = draw(vec)
        gens = [draw(vec) for _ in range(1 if kind == "line" else 2)]
        coeffs = draw(st.lists(st.tuples(*[_COORD] * len(gens)), min_size=min_points,
                               max_size=max_points - 1))
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


# ------------------------------------ double description vs the subset loop
#
# `_ref_subset_hull` is the previous `hull`, kept verbatim: it solved one
# integer kernel per d-subset of the points, C(n, d) solves.  It is fast enough
# for the larger sets the Fraction reference above cannot reach.  `_ref_edges`
# is the previous `Polytope.edges`, one elimination per vertex pair.

def _ref_subset_hull(points) -> Polytope:
    """Convex hull of finitely many exact rational points."""
    pts = sorted({weight(p) for p in points})
    if not pts:
        raise GitkitError("empty_hull", "convex hull of no points", {})
    r = len(pts[0])
    if any(len(p) != r for p in pts):
        raise GitkitError("rank_mismatch", "hull points have mixed lengths", {})

    scale = lcm(*(x.denominator for p in pts for x in p))
    ipts = [[x.numerator * (scale // x.denominator) for x in p] for p in pts]
    basis, pivots, _ = _bareiss([[a - b for a, b in zip(q, ipts[0])] for q in ipts[1:]])
    d = len(pivots)

    equations = []
    for u in _kernel(basis, r):
        n = primitive_integer(u)
        n, _ = _ref_sign_canonical(n, 0)
        equations.append((n, rat(wdot(n, pts[0]))))
    equations = tuple(sorted(equations))

    # Integer points in the pivot coordinates, a full-dimensional set in Z^d.
    # A linear form m on Z^d is the form <n, .> on the direction space for
    # n = (G^-1 B)^T m, with B the reduced basis and G = B B^T; `lift` is
    # G^-1 B scaled to integers (the identity when d = r).
    proj = [tuple(q[c] for c in pivots) for q in ipts]
    lift = None
    if 0 < d < r:
        gram = [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
        lift = [row[d:] for row in _bareiss([g + b for g, b in zip(gram, basis)])[0]]

    facets = {}
    seen = set()
    inward = []         # (inward normal m, level): <m, q> >= level on proj
    for idx in itertools.combinations(range(len(pts)), d) if d else ():
        base = proj[idx[0]]
        vecs = [[a - b for a, b in zip(proj[i], base)] for i in idx[1:]]
        ker = _kernel(vecs, d)
        if len(ker) != 1:
            continue
        m = ker[0]
        g = gcd(*m)
        if next(x for x in m if x) < 0:
            g = -g
        m = tuple(x // g for x in m)
        level = sum(a * b for a, b in zip(m, base))
        if (m, level) in seen:
            continue
        seen.add((m, level))
        vals = [sum(a * b for a, b in zip(m, q)) for q in proj]
        if min(vals) < level:
            if max(vals) > level:
                continue
            m, level = tuple(-x for x in m), -level
        inward.append((m, level))
        n = m if lift is None else primitive_integer(
            [sum(mb * row[j] for mb, row in zip(m, lift)) for j in range(r)])
        facets[n] = wdot(n, pts[idx[0]])
    facet_list = tuple(sorted(facets.items()))

    verts = [p for p, q in zip(pts, proj)
             if len(_bareiss([m for m, level in inward
                              if sum(a * b for a, b in zip(m, q)) == level])[1]) == d]
    return Polytope(tuple(sorted(verts)), facet_list, equations, d)



def _ref_edges(self) -> list[tuple[Weight, Weight]]:
    """Vertex pairs whose minimal common face is one-dimensional."""
    r = self.rank
    eq_rows = [n for n, _ in self.equations]
    out = []
    act = {v: set(self.active_facets(v)) for v in self.vertices}
    for u, v in itertools.combinations(self.vertices, 2):
        shared = act[u] & act[v]
        if len(_bareiss(eq_rows + [self.facets[i][0] for i in shared])[1]) == r - 1:
            out.append((u, v))
    return out


def _ref_contains(self, x: Weight) -> bool:
    x = weight(x)
    return (all(wdot(n, x) == off for n, off in self.equations)
            and all(wdot(n, x) >= off for n, off in self.facets))


def _ref_active_facets(self, x: Weight) -> tuple[int, ...]:
    x = weight(x)
    return tuple(i for i, (n, off) in enumerate(self.facets) if wdot(n, x) == off)


@st.composite
def _hull_and_probes(draw):
    """A drawn hull with probe points: its vertices and their centroid (on
    the boundary and in the relative interior), plus integer and p/q points
    of the same rank."""
    h = hull(draw(_point_sets()))
    vec = st.tuples(*[_COORD] * h.rank)
    centroid = tuple(sum(Fraction(v[i]) for v in h.vertices) / len(h.vertices)
                     for i in range(h.rank))
    probes = list(h.vertices) + [centroid] + draw(st.lists(vec, max_size=12))
    return h, probes


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_hull_and_probes())
def test_facet_tests_match_reference(case):
    h, probes = case
    for x in probes:
        assert h.contains(x) == _ref_contains(h, x), x
        assert h.active_facets(x) == _ref_active_facets(h, x), x


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_point_sets(max_rank=5, min_points=6, max_points=16))
def test_hull_and_edges_match_subset_reference(pts):
    got, want = hull(pts), _ref_subset_hull(pts)
    assert repr(got) == repr(want), pts
    assert json.dumps(got.to_json()) == json.dumps(want.to_json()), pts
    assert got.edges() == _ref_edges(got), pts


@pytest.mark.parametrize("pts", [
    [(0, 0), (3, 0), (3, 1), (0, 4)],
    [(0, 0), (2, 0), (0, 1), (2, 1), (3, Fraction(1, 2))],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)],
    [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)],
    list(weyl_orbit((3, 1, 0, 0), 4)),
    # square x square pyramid: the square over the apex lies on 4 = dim - 1
    # facets, as an edge does, so only the vertex count tells its diagonals
    [q + t for q in [(0, 0), (1, 0), (0, 1), (1, 1)]
     for t in [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)]],
])
def test_edge_users_match_subset_reference(pts, monkeypatch):
    h = hull(pts)
    normal = (1,) + (2,) * (h.rank - 1)
    vals = [wdot(normal, v) for v in h.vertices]
    level = (min(vals) + max(vals)) / 2
    got = (h.edge_frames(), symplectic_cut(h, normal, level),
           is_delzant(h) if h.dim == h.rank else None)
    monkeypatch.setattr(Polytope, "edges", _ref_edges)
    h = hull(pts)   # a fresh polytope: edge frames are built once per polytope
    assert got == (h.edge_frames(), symplectic_cut(h, normal, level),
                   is_delzant(h) if h.dim == h.rank else None)


def test_kostant_rank5_and_rank6_permutahedra():
    h5 = kostant_polytope((4, 3, 2, 1, 0))
    assert (len(h5.facets), len(h5.vertices), h5.dim) == (30, 120, 4)
    h6 = kostant_polytope((5, 4, 3, 2, 1, 0))
    assert (len(h6.facets), len(h6.vertices), h6.dim) == (62, 720, 5)


def test_hull_of_rank5_and_rank6_permutahedra():
    # double description on the orbits; the subset loop needs minutes for
    # these (8.2 M subsets at rank 5)
    h5 = hull(weyl_orbit((4, 3, 2, 1, 0), 5))
    assert (len(h5.facets), len(h5.vertices), h5.dim) == (30, 120, 4)
    h6 = hull(weyl_orbit((5, 4, 3, 2, 1, 0), 6))
    assert (len(h6.facets), len(h6.vertices), h6.dim) == (62, 720, 5)


# ------------------------------------ faces from the incidence vs the vertex scan
#
# `_ref_faces` is the previous `Polytope.faces`, kept verbatim: it closed the
# vertices' active-facet sets under intersection and then scanned every vertex
# for each set found.

def _ref_faces(self) -> list[tuple[int, tuple, tuple[int, ...]]]:
    """All nonempty faces, the polytope itself included.

    Returns (dim, vertex tuple, active facet indices), built by closing the
    vertex active-sets under intersection.
    """
    r = self.rank
    act = {v: frozenset(self.active_facets(v)) for v in self.vertices}
    sets: set = set()
    for a in act.values():
        sets |= {a & s for s in sets}
        sets.add(a)
    if len(self.vertices) == 1:
        sets = {frozenset()}
    out = {}
    eq_rows = [n for n, _ in self.equations]
    for s in sets:
        verts = tuple(sorted(v for v in self.vertices if s <= act[v]))
        full = frozenset.intersection(*[act[v] for v in verts]) if verts else s
        if verts in out:
            continue
        rank = len(_bareiss(eq_rows + [self.facets[i][0] for i in full])[1])
        out[verts] = (r - rank, verts, tuple(sorted(full)))
    return sorted(out.values())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_point_sets(max_rank=5, max_points=16))
def test_faces_match_vertex_scan_reference(pts):
    h = hull(pts)
    assert h.faces() == _ref_faces(h), pts


def test_permutahedra_face_counts():
    # f-vectors (120, 240, 150, 30, 1) and (720, 1800, 1560, 540, 62, 1)
    assert len(kostant_polytope((4, 3, 2, 1, 0)).faces()) == 541
    assert len(kostant_polytope((5, 4, 3, 2, 1, 0)).faces()) == 4683


def test_hull_permutahedra_face_counts():
    assert len(hull(weyl_orbit((4, 3, 2, 1, 0), 5)).faces()) == 541
    assert len(hull(weyl_orbit((5, 4, 3, 2, 1, 0), 6)).faces()) == 4683


def test_hull_makes_no_elimination_per_point(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(1)
        return _bareiss(rows)

    monkeypatch.setattr(polytopes, "_bareiss", counted)
    hull(weyl_orbit((1, 0, 0, 0, 0), 5))    # 5 points
    few = len(calls)
    assert few
    hull(weyl_orbit((4, 3, 2, 1, 0), 5))    # 120 points
    assert len(calls) - few == few


# ------------------------------------ Kostant polytopes from their inequalities
#
# `_ref_kostant_polytope` is the previous `kostant_polytope`, kept verbatim: it
# ran `hull` on the Weyl orbit.  The new one writes the Schur-Horn facets down
# and must give the same `repr` and JSON, and the same errors.

def _ref_kostant_polytope(lam: Weight) -> Polytope:
    """Convex hull of all coordinate permutations of a weakly decreasing weight."""
    lam = weight(lam)
    if not is_dominant(lam):
        raise GitkitError("not_dominant", "weight entries must be weakly decreasing",
                          {"weight": weight_to_json(lam)})
    return hull(weyl_orbit(lam, len(lam)))


def _assert_same_kostant(lam):
    got, want = kostant_polytope(lam), _ref_kostant_polytope(lam)
    assert repr(got) == repr(want), lam
    assert json.dumps(got.to_json()) == json.dumps(want.to_json()), lam


def test_kostant_matches_hull_on_c10_orbits():
    # every orbit of c10: rank 1-4, highest weight entries 0-5
    for r in range(1, 5):
        for lam in itertools.product(range(5, -1, -1), repeat=r):
            if all(lam[i] >= lam[i + 1] for i in range(r - 1)):
                _assert_same_kostant(lam)


@pytest.mark.parametrize("lam", [(), (4, 3, 2, 1, 0), (5, 4, 3, 2, 1, 0), (2, 2, 1, 1, 0, 0),
                                 (3, 3, 3, 3, 3, 3), (Fraction(5, 2), Fraction(1, 3), -1)])
def test_kostant_matches_hull_on_hand_cases(lam):
    _assert_same_kostant(lam)


def test_kostant_matches_hull_on_drawn_weights():
    # 300 weights of rank 1-6 drawn from pools of entries, so ties are common;
    # a rank-6 weight has at most 4 distinct entries (a hull of 360 or 720
    # points takes 0.1-0.2 s)
    rng = random.Random(24)
    seen = {"tie": 0, "negative": 0, "fraction": 0, "constant": 0, "rank6": 0}
    for _ in range(300):
        r = rng.randint(1, 6)
        pool = [rng.choice((rng.randint(-6, 6), Fraction(rng.randint(-12, 12), rng.randint(1, 4))))
                for _ in range(rng.randint(1, 4 if r == 6 else r))]
        lam = tuple(sorted(pool + [rng.choice(pool) for _ in range(r - len(pool))], reverse=True))
        seen["tie"] += len(set(lam)) < r
        seen["negative"] += any(x < 0 for x in lam)
        seen["fraction"] += any(type(rat(x)) is Fraction for x in lam)
        seen["constant"] += len(set(lam)) == 1
        seen["rank6"] += r == 6
        _assert_same_kostant(lam)
    assert min(seen.values()) >= 30, seen


def _raised(f, *args):
    """The exception f raised: its type, and for a GitkitError its code,
    message and context."""
    try:
        f(*args)
    except GitkitError as e:
        return e.code, e.message, e.context
    except Exception as e:
        return type(e), str(e)
    raise AssertionError(f"no error from {f.__name__}{args}")


@pytest.mark.parametrize("lam", [
    (True, 0), (1, "x"), (None,), (1, float("nan")),           # bad entries
    (0, 1), (2, Fraction(5, 2), 0), (1, 0, 0, 1),              # not dominant
    (1, 0, 2, "x"),                                            # entries first
    tuple(range(9, -1, -1)),                                   # 3628800 points
    (5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 0, 0),                      # 7484400 points
])
def test_kostant_refuses_like_reference(lam):
    assert _raised(kostant_polytope, lam) == _raised(_ref_kostant_polytope, lam)


def test_kostant_makes_no_hull_call(monkeypatch):
    lams = [(), (3,), (2, 2, 2), (2, 1, 0), (Fraction(5, 2), Fraction(1, 3), -1),
            (2, 2, 1, 1, 0, 0), (5, 4, 3, 2, 1, 0)]
    want = [repr(hull(weyl_orbit(weight(lam), len(lam)))) for lam in lams]
    calls = []
    monkeypatch.setattr(polytopes, "hull", lambda pts: calls.append(pts))
    assert [repr(kostant_polytope(lam)) for lam in lams] == want
    assert not calls


def test_kostant_rank7_permutahedron():
    # the double description of these 5040 points takes seconds
    h = kostant_polytope((6, 5, 4, 3, 2, 1, 0))
    assert (len(h.facets), len(h.vertices), h.dim) == (126, 5040, 6)
    assert h.equations == (((1,) * 7, 21),)
    assert h.facets[0] == ((-6, 1, 1, 1, 1, 1, 1), -21)      # x_1 <= 6


@pytest.mark.parametrize("pts, verts", [
    # square: its centre, an edge midpoint and a point inside another edge
    ([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0), (2, Fraction(1, 3))],
     [(0, 0), (0, 2), (2, 0), (2, 2)]),
    # cube: its centre, an edge midpoint and a facet centre
    ([(a, b, c) for a in (0, 2) for b in (0, 2) for c in (0, 2)]
     + [(1, 1, 1), (1, 0, 0), (1, 1, 0)],
     [(a, b, c) for a in (0, 2) for b in (0, 2) for c in (0, 2)]),
    # a triangle in a plane of Q^3, with an edge midpoint and an inner point
    ([(0, 0, 1), (2, 0, 1), (0, 2, 1), (1, 0, 1), (Fraction(1, 2), Fraction(1, 2), 1)],
     [(0, 0, 1), (0, 2, 1), (2, 0, 1)]),
])
def test_hull_drops_points_inside_faces(pts, verts):
    assert hull(pts).vertices == tuple(verts)
    _assert_same_hull(pts)


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


# ------------------------------------------ one lattice for every face question
#
# `_ref_brianchon_gram_check` is the previous `brianchon_gram_check`, kept
# verbatim: it tested every active facet of every face at every sample with
# exact dot products, and called `contains` for the expected value.

def _ref_brianchon_gram_check(p: Polytope, samples: int = 200, seed: int = 0) -> BGReport:
    """Test the signed tangent-cone identity at random rational points.

    For each face F, T_F keeps only the facet constraints active on F (the
    whole polytope keeps none).  The alternating sum of indicator values
    sum_F (-1)^dim(F) [x in T_F] must equal [x in P].  Points landing on a
    facet hyperplane are resampled, since every T_F boundary lies in one.
    """
    import random

    if type(samples) is not int or samples < 1:
        raise GitkitError("bad_input", "samples must be a positive integer",
                          {"samples": repr(samples)})
    if p.dim != p.rank:
        raise GitkitError("not_full_dim", "tangent-cone identity needs a full-dimensional polytope",
                          {"dim": p.dim, "rank": p.rank})
    rng = random.Random(seed)
    box = p.bounding_box()
    faces = p.faces()
    failures = []
    resampled = 0
    checked = 0
    while checked < samples:
        x = tuple(rat(Fraction(rng.randint(int(floor(lo)) * 7 - 9, int(ceil(hi)) * 7 + 9), 7))
                  for lo, hi in box)
        if any(wdot(n, x) == off for n, off in p.facets):
            resampled += 1
            if resampled > 50 * samples:
                raise GitkitError("resample_cap", "too many samples landed on facet hyperplanes", {})
            continue
        checked += 1
        total = 0
        for fdim, _verts, active in faces:
            inside = all(wdot(p.facets[i][0], x) >= p.facets[i][1] for i in active)
            if inside:
                total += (-1) ** fdim
        expect = 1 if p.contains(x) else 0
        if total != expect:
            failures.append((weight_to_json(x), total, expect))
    return BGReport(checked, not failures, resampled, tuple(failures))


def _full_dim_permutahedron(lam):
    """The Kostant polytope of lam with its last coordinate dropped: a
    full-dimensional copy of rank len(lam) - 1."""
    return hull([v[:-1] for v in kostant_polytope(lam).vertices])


@pytest.mark.parametrize("p, samples", [
    (hull([(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]), 200),
    (_full_dim_permutahedron((2, 1, 0)), 200),
    (_full_dim_permutahedron((3, 2, 1, 0)), 200),
    (_full_dim_permutahedron((4, 3, 2, 1, 0)), 40),
    # a square missing its top facet: the identity fails, so failures compare
    (Polytope(((0, 0), (0, 1), (1, 0), (1, 1)),
              (((0, 1), 0), ((1, 0), 0), ((-1, 0), -1)), (), 2), 200),
], ids=["cube", "hexagon", "perm-rank3", "perm-rank4", "open-square"])
def test_brianchon_gram_check_matches_reference(p, samples):
    for seed in (0, 5):
        got = brianchon_gram_check(p, samples, seed)
        assert got == _ref_brianchon_gram_check(p, samples, seed)


@st.composite
def _full_dim_point_sets(draw):
    """A simplex of rank 1 to 4 (a base point and one step along each
    axis), so the hull is full-dimensional, plus up to 8 more points."""
    r = draw(st.integers(1, 4))
    vec = st.tuples(*[_COORD] * r)
    base = draw(vec)
    steps = [draw(st.integers(1, 4)) for _ in range(r)]
    simplex = [tuple(b + (steps[j] if i == j else 0) for i, b in enumerate(base))
               for j in range(r)]
    return [base] + simplex + draw(st.lists(vec, max_size=8))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_full_dim_point_sets(), st.integers(0, 2**16))
def test_brianchon_gram_check_matches_reference_on_drawn_hulls(pts, seed):
    h = hull(pts)
    assert brianchon_gram_check(h, 20, seed) == _ref_brianchon_gram_check(h, 20, seed), pts


def test_face_readers_hand_back_fresh_lists():
    h = _full_dim_permutahedron((3, 1, 0))
    first = (h.edges(), h.edge_frames(), h.faces())
    want = copy.deepcopy(first)
    edges, frames, faces = first
    edges.append(edges.pop(0)[::-1])
    for dirs in frames.values():
        dirs.append(dirs[0])
    faces[0] = (9, (), ())
    del faces[1:]
    assert (h.edges(), h.edge_frames(), h.faces()) == want


def test_face_readers_build_the_lattice_once(monkeypatch):
    built = []
    lattice = Polytope.__dict__["_lattice"]
    build = lattice.func
    monkeypatch.setattr(lattice, "func", lambda self: built.append(self) or build(self))
    p = hull([(0, 0), (3, 0), (3, 1), (0, 4)])
    p.edges(), p.edge_frames(), p.faces()
    symplectic_cut(p, (1, 2), 3), vertex_sum(p), is_delzant(p), normal_fan(p)
    brianchon_gram_check(p, 20)
    assert len(built) == 1 and built[0] is p


def test_edge_frames_are_built_once(monkeypatch):
    built = []
    frames = Polytope.__dict__["_frames"]
    build = frames.func
    monkeypatch.setattr(frames, "func", lambda self: built.append(self) or build(self))
    p = hull([(0, 0), (3, 0), (3, 1), (0, 4)])
    p.edge_frames(), is_delzant(p), vertex_sum(p), p.edge_frames(), is_delzant(p)
    assert len(built) == 1 and built[0] is p


def test_edge_frame_users_ignore_a_mutated_frame_dict():
    p = hull([(0, 0), (3, 0), (3, 1), (0, 4)])
    want = (repr(p.edge_frames()), is_delzant(p), repr(vertex_sum(p)))
    frames = p.edge_frames()
    frames[(0, 0)].append((9, 9))
    del frames[(3, 0)]
    assert (repr(p.edge_frames()), is_delzant(p), repr(vertex_sum(p))) == want


# ------------------------------------ edge frames, bounding box, lattice points
#
# `_ref_primitive_integer`, `_ref_edge_frames`, `_ref_bounding_box` and
# `_ref_lattice_points` are the previous `lie.primitive_integer`,
# `Polytope.edge_frames`, `Polytope.bounding_box` and `lattice_points`, kept
# verbatim but for the `_ref_` names they call: every edge direction went
# through Fraction at each end, the box made a Fraction per vertex per axis,
# and every box point went through the public `contains`.

def _ref_primitive_integer(a: Weight) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector (same ray)."""
    fr = [Fraction(x) for x in a]
    if all(f == 0 for f in fr):
        raise GitkitError("zero_vector", "primitive direction of the zero vector", {})
    den = 1
    for f in fr:
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(f * den) for f in fr]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(v // g for v in ints)


def _ref_edge_frames(self) -> dict:
    """Primitive integer directions of the edges leaving each vertex."""
    frames: dict = {v: [] for v in self.vertices}
    for u, v in self.edges():
        frames[u].append(_ref_primitive_integer(wsub(v, u)))
        frames[v].append(_ref_primitive_integer(wsub(u, v)))
    return frames


def _ref_bounding_box(self) -> list[tuple[Fraction, Fraction]]:
    r = self.rank
    return [(min(Fraction(v[i]) for v in self.vertices),
             max(Fraction(v[i]) for v in self.vertices)) for i in range(r)]


def _ref_lattice_points(p: Polytope) -> list[Weight]:
    """All integer points of the polytope, by scanning the bounding box."""
    box = _ref_bounding_box(p)
    ranges = []
    for lo, hi in box:
        a, b = ceil(lo), floor(hi)
        if b - a > 100:
            raise GitkitError("box_too_large",
                              "bounding box axis exceeds 100 lattice steps",
                              {"width": b - a})
        ranges.append(range(a, b + 1))
    out = [pt for pt in itertools.product(*ranges) if p.contains(pt)]
    return sorted(out)


def _outcome(f, *args):
    """repr of f's result, or the code, message and context it raised."""
    try:
        return repr(f(*args))
    except GitkitError as e:
        return e.code, e.message, e.context


def _assert_same_frames_box_and_points(h):
    # repr shows every dict and list in order, and int apart from Fraction
    assert repr(h.edge_frames()) == repr(_ref_edge_frames(h))
    assert repr(h.bounding_box()) == repr(_ref_bounding_box(h))
    assert _outcome(lattice_points, h) == _outcome(_ref_lattice_points, h)


def test_frames_box_and_points_match_reference_on_kostant_orbits():
    # every orbit of c10: rank 1-4, highest weight entries 0-5
    for r in range(1, 5):
        for lam in itertools.product(range(5, -1, -1), repeat=r):
            if all(lam[i] >= lam[i + 1] for i in range(r - 1)):
                _assert_same_frames_box_and_points(hull(weyl_orbit(lam, r)))


def _small_coord(rng):
    return rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-6, 6), rng.randint(1, 3))))


def test_frames_box_and_points_match_reference_on_drawn_hulls():
    # 48 seeded hulls of rank 1-3 in three kinds, so that the floors below hold
    # by construction and no draw can miss them:
    # - 16 get a lex-largest point with first coordinate in Z + 1/2; that point
    #   is always a vertex, and apart from the others, so the hull has an edge;
    # - 24 get an integer point (a lattice point) and two distinct points (an edge);
    # - 8 get nothing added to their one to three points.
    rng = random.Random(25)
    seen = []   # per drawn hull: rational vertices, edges, lattice points
    for kind in ["top"] * 16 + ["integer"] * 24 + ["free"] * 8:
        r = rng.randint(1, 3)
        n = rng.randint(1, 3 if kind == "free" else 7)
        pts = [tuple(_small_coord(rng) for _ in range(r)) for _ in range(n)]
        if kind == "top":
            first = floor(max(pts)[0]) + Fraction(3, 2)
            pts.append((first,) + tuple(_small_coord(rng) for _ in range(r - 1)))
        elif kind == "integer":
            pts.append(tuple(rng.randint(-3, 3) for _ in range(r)))
            while len(set(pts)) < 2:
                pts.append(tuple(_small_coord(rng) for _ in range(r)))
        rng.shuffle(pts)
        h = hull(pts)
        _assert_same_frames_box_and_points(h)
        seen.append((any(type(x) is not int for v in h.vertices for x in v),
                     bool(h.edges()), bool(lattice_points(h))))
    rational, edged, points = (sum(col) for col in zip(*seen))
    assert rational >= 15 and edged >= 24 and points >= 24, (rational, edged, points)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.lists(_COORD | st.booleans() | st.just(0), min_size=1, max_size=5))
def test_primitive_integer_matches_reference(a):
    assert _outcome(primitive_integer, a) == _outcome(_ref_primitive_integer, a)


# ------------------------------------------------------ the cut in integers
#
# `_ref_symplectic_cut` is the previous `symplectic_cut`, kept verbatim: it
# took each vertex's value with `wdot`, each crossing in Fraction, and handed
# every kept point to `hull`.  The cut must give the same `repr` or the same
# error on every draw.

def _ref_symplectic_cut(p: Polytope, normal: Weight, level) -> CutResult:
    """Intersect with the halfspace <normal, x> >= level.

    Reports 'noop' when the halfspace already contains the polytope and
    'empty' when it misses it entirely; otherwise returns the cut polytope
    built from surviving vertices plus edge crossings.
    """
    normal = weight(normal)
    level = rat(level)
    vals = {v: wdot(normal, v) for v in p.vertices}
    if min(vals.values()) >= level:
        return CutResult("noop", p)
    if max(vals.values()) < level:
        return CutResult("empty", None)
    keep = [v for v in p.vertices if vals[v] >= level]
    for u, v in p.edges():
        a, b = vals[u], vals[v]
        if (a - level) * (b - level) < 0:
            t = Fraction(level - a, b - a)
            keep.append(tuple(rat(Fraction(x) + t * (Fraction(y) - Fraction(x)))
                              for x, y in zip(u, v)))
    return CutResult("cut", hull(keep))


@st.composite
def _cuts(draw):
    """A hull of rank 1-4 (full-dimensional or not, integer or p/q points),
    a normal of int or p/q entries (now and then zero), and levels at every
    vertex value, between each two, beyond both ends and one drawn."""
    h = hull(draw(_full_dim_point_sets() | _point_sets()))
    normal = draw(st.tuples(*[_COORD] * h.rank))
    vals = sorted({wdot(normal, v) for v in h.vertices})
    levels = vals + [(a + b) / 2 for a, b in zip(vals, vals[1:])]
    levels += [vals[0] - 1, vals[-1] + Fraction(1, 3), draw(_COORD)]
    return h, normal, levels


def test_cut_matches_reference(monkeypatch):
    calls, paths = [], {"direct": 0, "hull": 0}
    build = polytopes.hull
    monkeypatch.setattr(polytopes, "hull", lambda pts: calls.append(1) or build(pts))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_cuts())
    def compare(case):
        h, normal, levels = case
        for level in levels:
            before = len(calls)
            got = _outcome(symplectic_cut, h, normal, level)
            assert got == _outcome(_ref_symplectic_cut, h, normal, level), (h, normal, level)
            if str(got).startswith("CutResult(kind='cut'"):
                paths["hull" if len(calls) > before else "direct"] += 1

    compare()
    assert paths["direct"] >= 300 and paths["hull"] >= 50, paths


@pytest.mark.parametrize("normal, level", [
    ((1,), 0), ((1, 0, 0), 0), ((True, 0), 0), ((0, 0), 0), ((0, 0), 1),
    ((1, 1), "x"), ((1, 1), "1/0"), ((1, 1), 0.5), ((1, 1), "3/2"), ((1, 1), 2),
    ((Fraction(1, 2), Fraction(-1, 3)), Fraction(1, 6)), (("1/2", 1), 1),
])
def test_cut_refuses_and_accepts_like_reference(normal, level):
    h = hull([(0, 0), (3, 0), (0, 2), (2, 2)])
    assert _outcome(symplectic_cut, h, normal, level) == _outcome(
        _ref_symplectic_cut, h, normal, level)


def test_cut_of_a_full_dimensional_polytope_makes_no_hull_call(monkeypatch):
    p = hull([(0, 0), (3, 0), (3, 1), (0, 4)])
    calls = []
    monkeypatch.setattr(polytopes, "hull", lambda pts: calls.append(pts))
    out = symplectic_cut(p, (1, 2), 3)
    assert out.kind == "cut" and not calls
    assert out.polytope.vertices == ((0, Fraction(3, 2)), (0, 4), (3, 0), (3, 1))
    assert repr(out.polytope) == repr(hull(out.polytope.vertices))   # the module's own hull


def test_smoothness_is_checked_once_per_vertex(monkeypatch):
    calls = []
    index = polytopes._frame_index
    monkeypatch.setattr(polytopes, "_frame_index", lambda rows: calls.append(1) or index(rows))
    p = hull([(a, b, c) for a in (0, 2) for b in (0, 1) for c in (-1, 1)])
    is_delzant(p), vertex_sum(p), is_delzant(p), vertex_sum(p)
    assert len(calls) == len(p.vertices) == 8
