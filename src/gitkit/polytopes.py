"""Exact rational convex polytopes, small-dimensional.

A polytope is stored as both vertices and an irredundant H-description:
inward facet normals (primitive integer, <n,x> >= off) plus affine-hull
equations (<n,x> = off).  Nothing here is floating point, and all the
linear algebra is one fraction-free Gauss-Jordan elimination of integer
matrices (`_bareiss`).  `hull` scales the points to integers by the lcm of
their denominators, finds the affine hull from their differences, projects
the points onto the pivot coordinates and finds the facets there by double
description in integers (`_facet_rays`), whose work follows the rays it
keeps rather than the number of d-subsets of the points; each normal is
lifted back once.  Each polytope builds its face lattice once, as bitsets,
from its facet-vertex incidence alone; edges, face dimensions and tangent
cones are read off those bits.  `hull`'s intended scale is rank <= 6 with
up to a few hundred points (its hull of a rank-6 Kostant orbit, 720 points,
takes about 0.2 s).  `kostant_polytope` runs no hull: it writes the orbit's
Schur-Horn inequalities down, so rank 7 (5040 vertices) takes milliseconds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, gcd
from operator import mul, sub

from .lie import (
    GitkitError,
    Weight,
    fmt_rat,
    is_dominant,
    entries,
    integer,
    integer_frame,
    is_integral,
    primitive_integer,
    rat,
    record,
    weight,
    weight_from_json,
    weight_to_json,
    weyl_orbit,
)


def _bareiss(rows) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss
    1968): every division is exact, so no Fraction is made.

    Returns (reduced rows, pivot columns, det).  The reduced rows are the
    reduced row echelon form scaled by one positive integer delta: each pivot
    entry is delta and each row is zero in the other pivot columns.  The
    determinant is 0 unless the matrix is square of full rank; an empty
    matrix has determinant 1."""
    m = [list(row) for row in rows]
    ncols = len(m[0]) if m else 0
    pivots, sign, prev = [], 1, 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], top)]
        prev = p
        pivots.append(c)
    rank = len(pivots)
    red = m[:rank] if prev > 0 else [[-x for x in row] for row in m[:rank]]
    return red, pivots, (sign * prev if rank == len(m) == ncols else 0)


def _kernel(rows, n: int) -> list[list[int]]:
    """Integer basis of {x in Q^n : rows . x = 0}: per free column fc, delta
    at fc and -row[fc] at each row's pivot column."""
    red, pivots, _ = _bareiss(rows)
    delta = red[0][pivots[0]] if red else 1
    by_col = dict(zip(pivots, red))
    return [[delta if c == fc else -by_col[c][fc] if c in by_col else 0 for c in range(n)]
            for fc in range(n) if fc not in by_col]


def _frame_index(rows) -> int:
    """gcd of the maximal minors of integer rows (|det| for a square frame, 1
    for no rows): 1 exactly when the rows are a lattice basis of their span."""
    g = 0
    for cols in itertools.combinations(range(len(rows[0]) if rows else 0), len(rows)):
        g = gcd(g, _bareiss([[row[c] for c in cols] for row in rows])[2])
    return g


def _ratio(a: int, b: int) -> int | Fraction:
    """a / b for ints (b nonzero) as a canonical exact rational: an int when
    it is one."""
    q, rem = divmod(a, b)
    return Fraction(a, b) if rem else q


def _bits(z: int):
    """Indices of the set bits of z, ascending."""
    while z:
        low = z & -z
        yield low.bit_length() - 1
        z ^= low


@dataclass(frozen=True)
class Polytope:
    vertices: tuple
    facets: tuple          # ((normal ints), offset): <n,x> >= offset, irredundant
    equations: tuple       # ((normal ints), offset): <n,x> == offset, affine hull
    dim: int

    @property
    def rank(self) -> int:
        return len(self.vertices[0])

    def _point(self, x: Weight) -> Weight:
        """x as exact rationals, refused (rank_mismatch) unless of this rank."""
        x = weight(x)
        if len(x) != self.rank:
            raise GitkitError("rank_mismatch", "weights have different lengths",
                              {"lengths": [self.rank, len(x)]})
        return x

    def contains(self, x: Weight) -> bool:
        x = self._point(x)
        return (all(sum(map(mul, n, x)) == off for n, off in self.equations)
                and all(sum(map(mul, n, x)) >= off for n, off in self.facets))

    def active_facets(self, x: Weight) -> tuple[int, ...]:
        x = self._point(x)
        return tuple(i for i, (n, off) in enumerate(self.facets) if sum(map(mul, n, x)) == off)

    @cached_property
    def _lattice(self) -> tuple[tuple[int, ...], frozenset[int]]:
        """The face lattice, built once: each facet's vertex set as a bitset
        (bit j for self.vertices[j]), and every nonempty face's: those sets
        closed under intersection, plus the whole polytope."""
        inc = tuple(sum(1 << j for j, v in enumerate(self.vertices)
                        if sum(map(mul, n, v)) == off) for n, off in self.facets)
        sets = {(1 << len(self.vertices)) - 1}
        for z in inc:
            sets |= {z & s for s in sets}
        return inc, frozenset(sets - {0})

    def edges(self) -> list[tuple[Weight, Weight]]:
        """Vertex pairs that span a one-dimensional face, in lex order: the
        faces with exactly two vertices."""
        v = self.vertices
        return sorted(tuple(v[j] for j in _bits(s)) for s in self._lattice[1]
                      if s.bit_count() == 2)

    @cached_property
    def _frames(self) -> dict:
        """edge_frames, built once: each edge's primitive direction is found
        once (in ints, with no Fraction, when the vertices are ints) and
        negated for its other end."""
        frames: dict = {v: [] for v in self.vertices}
        for u, v in self.edges():
            e = primitive_integer(tuple(map(sub, v, u)))
            frames[u].append(e)
            frames[v].append(tuple(-x for x in e))
        return frames

    def edge_frames(self) -> dict:
        """Primitive integer directions of the edges leaving each vertex."""
        return {v: list(es) for v, es in self._frames.items()}

    @cached_property
    def _frame_indices(self) -> dict:
        """The _frame_index of each vertex's edge frame, built once for
        is_delzant and vertex_sum."""
        return {v: _frame_index(es) for v, es in self._frames.items()}

    def faces(self) -> list[tuple[int, tuple, tuple[int, ...]]]:
        """All nonempty faces, the polytope itself included, as sorted
        (dim, vertex tuple, active facet indices).  Each facet of a face F is
        F & G for a facet G of the polytope, so dim F is 1 + the largest dim
        of a nonempty F & G other than F, and a vertex has dim 0."""
        inc, sets = self._lattice
        dims = {}
        for s in sorted(sets, key=int.bit_count):
            dims[s] = 1 + max((dims[s & z] for z in inc if 0 != s & z != s), default=-1)
        return sorted((d, tuple(self.vertices[j] for j in _bits(s)),
                       tuple(i for i, z in enumerate(inc) if z & s == s)) for s, d in dims.items())

    def bounding_box(self) -> list[tuple[Fraction, Fraction]]:
        return [(Fraction(min(col)), Fraction(max(col))) for col in zip(*self.vertices)]

    def to_json(self) -> dict:
        return {
            "vertices": [weight_to_json(v) for v in self.vertices],
            "facets": [{"normal": list(n), "offset": fmt_rat(off)} for n, off in self.facets],
            "equations": [{"normal": list(n), "offset": fmt_rat(off)} for n, off in self.equations],
            "dim": self.dim,
        }

    @staticmethod
    def from_json(obj) -> "Polytope":
        if not isinstance(obj, dict) or not isinstance(obj.get("vertices"), list):
            raise GitkitError("bad_input", "a polytope must be an object with a list "
                              "of vertices", {})
        return hull([weight_from_json(v) for v in obj["vertices"]])


def _facet_rays(proj, d: int) -> list[tuple[tuple[int, ...], int]]:
    """Facets of the hull of distinct integer points proj spanning Z^d (d >= 1):
    each primitive inward normal m with the bitset of the points on its facet.

    Double description (Motzkin, Raiffa, Thompson and Thrall 1953) of the
    pointed cone {(m, l) : <m, q> >= l for every point q}, whose extreme rays
    are exactly the facets (so m != 0 on each).  It starts from the cone of
    d+1 affinely independent points, whose rays are the columns of their
    inverse, and adds one point's inequality at a time.  Rays are primitive
    integer vectors kept with the bitset of their tight points; a positive and
    a negative ray are combined only when adjacent: they share at least d-1
    tight points and no third ray is tight on all of them (Fukuda and Prodon,
    "Double description method revisited", 1996)."""
    rows = [q + (-1,) for q in proj]
    init = _bareiss(list(zip(*rows)))[1]     # the lex-first affine basis among the points
    inv = _bareiss([list(rows[i]) + [int(a == b) for b in range(d + 1)]
                    for a, i in enumerate(init)])[0]
    seeded = sum(1 << i for i in init)
    rays = []           # (primitive ray (m, l), bitset of tight points)
    for a, i in enumerate(init):
        x = [row[d + 1 + a] for row in inv]
        g = gcd(*x)
        rays.append(([v // g for v in x], seeded ^ 1 << i))
    for k, row in enumerate(rows):
        if seeded >> k & 1:
            continue
        keep, pos, neg = [], [], []
        for x, z in rays:
            s = sum(a * b for a, b in zip(x, row))
            if s > 0:
                keep.append((x, z))
                pos.append((x, z, s))
            elif s < 0:
                neg.append((x, z, s))
            else:
                keep.append((x, z | 1 << k))
        for xp, zp, sp in pos:
            for xn, zn, sn in neg:
                z = zp & zn
                if z.bit_count() >= d - 1 and not any(
                        w & z == z and w != zp and w != zn for _, w in rays):
                    x = [sp * b - sn * a for a, b in zip(xp, xn)]
                    g = gcd(*x)
                    keep.append(([v // g for v in x], z | 1 << k))
        rays = keep
    out = []
    for x, z in rays:
        g = gcd(*x[:d])
        out.append((tuple(v // g for v in x[:d]), z))
    return out


def _point_set(points) -> tuple:
    """The distinct points, sorted; none, or points of mixed lengths, are refused."""
    pts = tuple(sorted({weight(p) for p in entries(points)}))
    if not pts:
        raise GitkitError("empty_hull", "convex hull of no points", {})
    if any(len(p) != len(pts[0]) for p in pts):
        raise GitkitError("rank_mismatch", "hull points have mixed lengths", {})
    return pts


def hull(points) -> Polytope:
    """Convex hull of finitely many exact rational points.

    Facets come from `_facet_rays` on the points in pivot coordinates of
    their affine hull, each with the exact set of points on it; a point is a
    vertex when the facets through it meet in that point alone.  The result
    is canonical (sorted vertices, sorted primitive facet normals and
    equations), so it does not depend on the order of the points or on how
    the facets were found."""
    pts = _point_set(points)
    r = len(pts[0])

    scale, ipts = integer_frame(pts)
    basis, pivots, _ = _bareiss([[a - b for a, b in zip(q, ipts[0])] for q in ipts[1:]])
    d = len(pivots)

    equations = []
    for u in _kernel(basis, r):
        n = primitive_integer(u)
        if next(x for x in n if x) < 0:
            n = tuple(-x for x in n)
        equations.append((n, _ratio(sum(map(mul, n, ipts[0])), scale)))
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
    meet = [(1 << len(pts)) - 1] * len(pts)     # the points on every facet through each
    for m, z in _facet_rays(proj, d) if d else ():
        n = m if lift is None else primitive_integer(
            [sum(mb * row[j] for mb, row in zip(m, lift)) for j in range(r)])
        facets[n] = _ratio(sum(map(mul, n, ipts[next(_bits(z))])), scale)
        for i in _bits(z):
            meet[i] &= z
    facet_list = tuple(sorted(facets.items()))

    verts = [p for i, p in enumerate(pts) if meet[i] == 1 << i]
    return Polytope(tuple(verts), facet_list, equations, d)


def kostant_polytope(lam: Weight) -> Polytope:
    """Convex hull of all coordinate permutations of a weakly decreasing weight
    (Kostant 1973), the same `Polytope` as `hull` of the orbit, built from its
    inequalities with no hull.

    By the Schur-Horn inequalities (majorization; Rado 1952), x lies in it
    exactly when sum x = sum lam and, for 1 <= k < r and every k-subset S of
    the coordinates, sum_S x <= lam_1 + ... + lam_k.  In primitive inward form
    <(k 1 - r 1_S) / g, x> >= (k sum lam - r (lam_1 + ... + lam_k)) / g with
    g = gcd(k, r).  The face on it is the product of the permutahedra of
    lam_1..lam_k and lam_k+1..lam_r, so it is a facet exactly when neither
    block is constant (a block of one entry aside).  A constant lam is a
    point."""
    lam = weight(lam)
    if not is_dominant(lam):
        raise GitkitError("not_dominant", "weight entries must be weakly decreasing",
                          {"weight": weight_to_json(lam)})
    r = len(lam)
    verts = tuple(sorted(weyl_orbit(lam, r)))
    if len(verts) == 1:
        eqs = sorted((tuple(int(i == j) for j in range(r)), x) for i, x in enumerate(lam))
        return Polytope(verts, (), tuple(eqs), 0)
    scale, (ilam,) = integer_frame([lam])
    total, top, facets = sum(ilam), 0, []
    for k in range(1, r):
        top += ilam[k - 1]
        if (k == 1 or lam[0] != lam[k - 1]) and (k == r - 1 or lam[k] != lam[-1]):
            g = gcd(k, r)
            off = _ratio((k * total - r * top) // g, scale)
            inside, outside = (k - r) // g, k // g
            for s in itertools.combinations(range(r), k):
                n = [outside] * r
                for i in s:
                    n[i] = inside
                facets.append((tuple(n), off))
    facets.sort()
    return Polytope(verts, tuple(facets), (((1,) * r, _ratio(total, scale)),), r - 1)


def lattice_points(p: Polytope) -> list[Weight]:
    """All integer points of the polytope, in lex order, by scanning the
    bounding box with plain dot products: its points need no parsing."""
    record(Polytope, "a polytope", p)
    box = p.bounding_box()
    ranges = []
    for lo, hi in box:
        a, b = ceil(lo), floor(hi)
        if b - a > 100:
            raise GitkitError("box_too_large",
                              "bounding box axis exceeds 100 lattice steps",
                              {"width": b - a})
        ranges.append(range(a, b + 1))
    return [pt for pt in itertools.product(*ranges)
            if all(sum(map(mul, n, pt)) == off for n, off in p.equations)
            and all(sum(map(mul, n, pt)) >= off for n, off in p.facets)]


@dataclass(frozen=True)
class DelzantReport:
    ok: bool
    failing_vertex: Weight | None
    reason: str


def is_delzant(p: Polytope) -> DelzantReport:
    """Full-dimensional, integer vertices, and a unimodular edge frame at each vertex.

    The first failing vertex in lex order is reported.
    """
    record(Polytope, "a polytope", p)
    r = p.rank
    if p.dim != r:
        raise GitkitError("not_full_dim", "Delzant test needs a full-dimensional polytope",
                          {"dim": p.dim, "rank": r})
    for v in p.vertices:  # vertices are stored lex sorted
        if not is_integral(v):
            return DelzantReport(False, v, "non-integer vertex")
        dirs = sorted(p._frames[v])
        if len(dirs) != r:
            return DelzantReport(False, v, f"{len(dirs)} edges at a rank-{r} vertex")
        if p._frame_indices[v] != 1:
            return DelzantReport(False, v, f"edge frame determinant {_bareiss(dirs)[2]}")
    return DelzantReport(True, None, "")


@dataclass(frozen=True)
class CutResult:
    kind: str                   # 'cut' | 'noop' | 'empty'
    polytope: Polytope | None


def symplectic_cut(p: Polytope, normal: Weight, level) -> CutResult:
    """Intersect with the halfspace <normal, x> >= level.

    Reports 'noop' when the halfspace already contains the polytope and
    'empty' when it misses it entirely; otherwise returns the cut polytope,
    whose vertices are the kept vertices and the edge crossings.  Vertices,
    normal and level are scaled to integers, so each vertex's side is an
    integer dot product and each crossing one division.  When the polytope is
    full-dimensional and a vertex lies strictly inside the halfspace, the cut
    is built with no hull: a facet of the polytope stays a facet exactly when
    it has a vertex strictly inside (else its part in the halfspace lies in
    the cut hyperplane, of dimension at most dim - 2), and the cut hyperplane
    is the one new facet.  A lower-dimensional polytope, or a cut that keeps
    only a face (it needs equations), goes through `hull`.
    """
    normal = weight(normal)
    level = rat(level)
    record(Polytope, "a polytope", p)
    r = p.rank
    if len(normal) != r:
        raise GitkitError("rank_mismatch", "weights have different lengths",
                          {"lengths": [len(normal), r]})
    # vertices times s, (normal, level) times m: gap = s * m * (<normal, v> - level)
    s, ipts = integer_frame(p.vertices)
    *nn, off = integer_frame([normal + (level,)])[1][0]
    gaps = [sum(map(mul, nn, q)) - off * s for q in ipts]
    if min(gaps) >= 0:
        return CutResult("noop", p)
    if max(gaps) < 0:
        return CutResult("empty", None)
    keep = [v for v, gap in zip(p.vertices, gaps) if gap >= 0]
    for z in p._lattice[1]:
        if z.bit_count() == 2:
            i, j = _bits(z)
            a, b = gaps[i], gaps[j]
            if a * b < 0:   # (x * b - y * a) / (b - a), back over s
                keep.append(tuple(_ratio(x * b - y * a, (b - a) * s)
                                  for x, y in zip(ipts[i], ipts[j])))
    if p.dim < r or max(gaps) == 0:
        return CutResult("cut", hull(keep))
    inside = sum(1 << j for j, gap in enumerate(gaps) if gap > 0)
    g = gcd(*nn)
    facets = [f for f, z in zip(p.facets, p._lattice[0]) if z & inside]
    facets.append((tuple(x // g for x in nn), _ratio(off, g)))
    return CutResult("cut", Polytope(tuple(sorted(keep)), tuple(sorted(facets)), (), r))


def normal_fan(p: Polytope) -> list[dict]:
    """Outward-normal cone at every face of a full-dimensional polytope, in `faces` order."""
    record(Polytope, "a polytope", p)
    if p.dim != p.rank:
        raise GitkitError("not_full_dim", "normal fan needs a full-dimensional polytope",
                          {"dim": p.dim, "rank": p.rank})
    out = []
    for fdim, verts, active in p.faces():
        gens = sorted(tuple(-x for x in p.facets[i][0]) for i in active)
        out.append({"face_dim": fdim, "face_vertices": verts, "generators": gens})
    return out


@dataclass(frozen=True)
class BGReport:
    checked: int
    passed: bool
    resampled: int
    failures: tuple


def brianchon_gram_check(p: Polytope, samples: int = 200, seed: int = 0) -> BGReport:
    """Test the signed tangent-cone identity at random rational points.

    For each face F, T_F keeps only the facet constraints active on F (the
    whole polytope keeps none).  The alternating sum of indicator values
    sum_F (-1)^dim(F) [x in T_F] must equal [x in P].  Points landing on a
    facet hyperplane are resampled, since every T_F boundary lies in one.
    x lies in T_F when F's active facets are among those x satisfies.
    """
    import random

    if (samples := integer(samples, "samples")) < 1:
        raise GitkitError("bad_input", "samples must be a positive integer",
                          {"samples": repr(samples)})
    record(Polytope, "a polytope", p)
    if p.dim != p.rank:
        raise GitkitError("not_full_dim", "tangent-cone identity needs a full-dimensional polytope",
                          {"dim": p.dim, "rank": p.rank})
    rng = random.Random(integer(seed, "seed"))
    box = p.bounding_box()
    cones = [(sum(1 << i for i in active), (-1) ** fdim) for fdim, _verts, active in p.faces()]
    failures = []
    resampled = 0
    checked = 0
    while checked < samples:
        x = tuple(rat(Fraction(rng.randint(int(floor(lo)) * 7 - 9, int(ceil(hi)) * 7 + 9), 7))
                  for lo, hi in box)
        gaps = [sum(map(mul, n, x)) - off for n, off in p.facets]
        if 0 in gaps:
            resampled += 1
            if resampled > 50 * samples:
                raise GitkitError("resample_cap", "too many samples landed on facet hyperplanes", {})
            continue
        checked += 1
        sat = sum(1 << i for i, g in enumerate(gaps) if g > 0)
        total = sum(sign for mask, sign in cones if mask & sat == mask)
        expect = 1 if sat.bit_count() == len(p.facets) else 0
        if total != expect:
            failures.append((weight_to_json(x), total, expect))
    return BGReport(checked, not failures, resampled, tuple(failures))
