"""Exact rational convex polytopes, small-dimensional, by brute enumeration.

A polytope is stored as both vertices and an irredundant H-description:
inward facet normals (primitive integer, <n,x> >= off) plus affine-hull
equations (<n,x> = off).  All arithmetic is over Fraction; nothing here is
floating point.  Intended scale is rank <= 4 with a handful of vertices, so
candidate facets are enumerated straight from point subsets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from .lie import (
    GitkitError,
    Weight,
    fmt_rat,
    is_dominant,
    parse_rat,
    primitive_integer,
    rat,
    wdot,
    weight,
    weight_from_json,
    weight_to_json,
    weyl_orbit,
    wsub,
)


def _rref(rows: list[list[Fraction]]):
    """Row reduce in place (on a copy); returns (reduced rows, pivot columns)."""
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


def _rank(rows) -> int:
    return len(_rref(rows)[0])


def _nullspace(rows, n: int) -> list[list[Fraction]]:
    """Basis of {x in Q^n : rows . x = 0}."""
    red, pivots = _rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def _sign_canonical(n: tuple[int, ...], off) -> tuple[tuple[int, ...], Fraction]:
    """Flip an equation so its first nonzero normal entry is positive."""
    for x in n:
        if x != 0:
            if x < 0:
                return tuple(-y for y in n), -Fraction(off)
            break
    return n, Fraction(off)


@dataclass(frozen=True)
class Polytope:
    vertices: tuple
    facets: tuple          # ((normal ints), offset): <n,x> >= offset, irredundant
    equations: tuple       # ((normal ints), offset): <n,x> == offset, affine hull
    dim: int

    @property
    def rank(self) -> int:
        return len(self.vertices[0])

    def contains(self, x: Weight) -> bool:
        x = weight(x)
        return (all(wdot(n, x) == off for n, off in self.equations)
                and all(wdot(n, x) >= off for n, off in self.facets))

    def contains_relint(self, x: Weight) -> bool:
        x = weight(x)
        return (all(wdot(n, x) == off for n, off in self.equations)
                and all(wdot(n, x) > off for n, off in self.facets))

    def active_facets(self, x: Weight) -> tuple[int, ...]:
        x = weight(x)
        return tuple(i for i, (n, off) in enumerate(self.facets) if wdot(n, x) == off)

    def edges(self) -> list[tuple[Weight, Weight]]:
        """Vertex pairs whose minimal common face is one-dimensional."""
        r = self.rank
        eq_rows = [list(map(Fraction, n)) for n, _ in self.equations]
        out = []
        act = {v: set(self.active_facets(v)) for v in self.vertices}
        for u, v in itertools.combinations(self.vertices, 2):
            shared = act[u] & act[v]
            rows = eq_rows + [list(map(Fraction, self.facets[i][0])) for i in shared]
            if _rank(rows) == r - 1:
                out.append((u, v))
        return out

    def faces(self) -> list[tuple[int, tuple, tuple[int, ...]]]:
        """All nonempty faces, the polytope itself included.

        Returns (dim, vertex tuple, active facet indices), built by closing the
        vertex active-sets under intersection.
        """
        r = self.rank
        act = {v: frozenset(self.active_facets(v)) for v in self.vertices}
        sets = set(act.values())
        changed = True
        while changed:
            changed = False
            for a, b in itertools.combinations(list(sets), 2):
                c = a & b
                if c not in sets:
                    sets.add(c)
                    changed = True
        if len(self.vertices) == 1:
            sets = {frozenset()}
        out = {}
        eq_rows = [list(map(Fraction, n)) for n, _ in self.equations]
        for s in sets:
            verts = tuple(sorted(v for v in self.vertices if s <= act[v]))
            full = frozenset.intersection(*[act[v] for v in verts]) if verts else s
            if verts in out:
                continue
            rows = eq_rows + [list(map(Fraction, self.facets[i][0])) for i in full]
            out[verts] = (r - _rank(rows), verts, tuple(sorted(full)))
        return sorted(out.values())

    def bounding_box(self) -> list[tuple[Fraction, Fraction]]:
        r = self.rank
        return [(min(Fraction(v[i]) for v in self.vertices),
                 max(Fraction(v[i]) for v in self.vertices)) for i in range(r)]

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


def hull(points) -> Polytope:
    """Convex hull of finitely many exact rational points."""
    pts = sorted({weight(p) for p in points})
    if not pts:
        raise GitkitError("empty_hull", "convex hull of no points", {})
    r = len(pts[0])
    if any(len(p) != r for p in pts):
        raise GitkitError("rank_mismatch", "hull points have mixed lengths", {})

    p0 = pts[0]
    diffs = [list(map(Fraction, wsub(p, p0))) for p in pts[1:]]
    basis_red, _ = _rref(diffs)
    d = len(basis_red)

    equations = []
    for u in _nullspace(basis_red, r):
        n = primitive_integer(u)
        n, _ = _sign_canonical(n, 0)
        equations.append((n, rat(wdot(n, p0))))
    equations = tuple(sorted(equations))

    facets = {}
    if d >= 1:
        for idx in itertools.combinations(range(len(pts)), d):
            base = pts[idx[0]]
            vecs = [list(map(Fraction, wsub(pts[i], base))) for i in idx[1:]]
            if _rank(vecs) != d - 1:
                continue
            # normal lives in the affine direction space and kills every vec
            m = [[sum(Fraction(v[k]) * basis_red[b][k] for k in range(r)) for b in range(d)]
                 for v in vecs]
            null = _nullspace(m, d)
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
        if _rank(rows) == r:
            verts.append(p)
    if not verts:
        # dimension 0: the single point is the whole polytope
        verts = list(pts)
    return Polytope(tuple(sorted(verts)), facet_list, equations, d)


def kostant_polytope(lam: Weight) -> Polytope:
    """Convex hull of all coordinate permutations of a weakly decreasing weight."""
    lam = weight(lam)
    if not is_dominant(lam):
        raise GitkitError("not_dominant", "weight entries must be weakly decreasing",
                          {"weight": weight_to_json(lam)})
    return hull(weyl_orbit(lam, len(lam)))


def lattice_points(p: Polytope) -> list[Weight]:
    """All integer points of the polytope, by scanning the bounding box."""
    box = p.bounding_box()
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


def _det(rows: list[list[Fraction]]) -> Fraction:
    m = [list(map(Fraction, r)) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = None
        for i in range(c, n):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


@dataclass(frozen=True)
class DelzantReport:
    ok: bool
    failing_vertex: Weight | None
    reason: str


def is_delzant(p: Polytope) -> DelzantReport:
    """Full-dimensional, integer vertices, and a unimodular edge frame at each vertex.

    The first failing vertex in lex order is reported.
    """
    r = p.rank
    if p.dim != r:
        raise GitkitError("not_full_dim", "Delzant test needs a full-dimensional polytope",
                          {"dim": p.dim, "rank": r})
    edge_map: dict = {v: [] for v in p.vertices}
    edges = p.edges()
    for u, v in edges:
        edge_map[u].append(primitive_integer(wsub(v, u)))
        edge_map[v].append(primitive_integer(wsub(u, v)))
    for v in p.vertices:  # vertices are stored lex sorted
        if any(Fraction(x).denominator != 1 for x in v):
            return DelzantReport(False, v, "non-integer vertex")
        dirs = sorted(edge_map[v])
        if len(dirs) != r:
            return DelzantReport(False, v, f"{len(dirs)} edges at a rank-{r} vertex")
        det = _det([list(map(Fraction, d)) for d in dirs])
        if abs(det) != 1:
            return DelzantReport(False, v, f"edge frame determinant {det}")
    return DelzantReport(True, None, "")


@dataclass(frozen=True)
class CutResult:
    kind: str                   # 'cut' | 'noop' | 'empty'
    polytope: Polytope | None


def symplectic_cut(p: Polytope, normal: Weight, level) -> CutResult:
    """Intersect with the halfspace <normal, x> >= level.

    Reports 'noop' when the halfspace already contains the polytope and
    'empty' when it misses it entirely; otherwise returns the cut polytope
    built from surviving vertices plus edge crossings.
    """
    normal = weight(normal)
    level = parse_rat(level)
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


def normal_fan(p: Polytope) -> list[dict]:
    """Outward-normal cone at every face of a full-dimensional polytope."""
    if p.dim != p.rank:
        raise GitkitError("not_full_dim", "normal fan needs a full-dimensional polytope",
                          {"dim": p.dim, "rank": p.rank})
    out = []
    for fdim, verts, active in p.faces():
        gens = sorted(tuple(-x for x in p.facets[i][0]) for i in active)
        out.append({"face_dim": fdim, "face_vertices": verts, "generators": gens})
    return sorted(out, key=lambda c: (c["face_dim"], c["face_vertices"]))


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
    """
    import random

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
