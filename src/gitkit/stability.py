"""Torus actions on projective points: stability, destabilizers, descent.

A projective point is summarized by its support: the list of torus weights
carrying nonzero coordinates, each with a positive mass (squared coordinate
size).  Every exact question (classification, worst destabilizer, critical
types) reduces to rational convex geometry on those weights; the descent
solver is the one deliberately floating-point piece, one kernel in two
halves: `_psi_value` for every Armijo trial and `_psi_gradient` for the
masses and gradient of the accepted one.  The tests play the two routes
against each other.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy

from .lie import (
    GitkitError,
    Weight,
    entries,
    fmt_rat,
    integer,
    integer_frame,
    rat,
    record,
    wadd,
    wdot,
    weight,
    weight_from_json,
    weight_to_json,
    wneg,
    wnorm_sq,
    wsub,
)
from .polytopes import Polytope, _bareiss, _point_set, hull


@dataclass(frozen=True)
class ProjPoint:
    support: tuple          # ((weight, mass), ...), weights distinct, masses > 0

    @property
    def rank(self) -> int:
        return len(self.support[0][0])

    @property
    def weights(self) -> tuple:
        return tuple(w for w, _ in self.support)

    def to_json(self) -> dict:
        return {"weights": [weight_to_json(w) for w, _ in self.support],
                "masses": [fmt_rat(c) for _, c in self.support]}

    @staticmethod
    def from_json(obj) -> "ProjPoint":
        if (not isinstance(obj, dict) or not isinstance(obj.get("weights"), list)
                or not isinstance(obj.get("masses", []), list)):
            raise GitkitError("bad_input", "a point must be an object with a list of "
                              "weights and an optional list of masses", {})
        return proj_point([weight_from_json(w) for w in obj["weights"]], obj.get("masses"))


def proj_point(weights, masses=None) -> ProjPoint:
    """Build a projective point summary; equal weights pool their mass."""
    ws = [weight(w) for w in entries(weights)]
    if not ws:
        raise GitkitError("bad_input", "a projective point needs at least one weight", {})
    r = len(ws[0])
    if any(len(w) != r for w in ws):
        raise GitkitError("rank_mismatch", "weights have mixed lengths", {})
    if masses is None:
        masses = [1] * len(ws)
    cs = weight(masses)
    if len(cs) != len(ws):
        raise GitkitError("bad_input", "one mass per weight required",
                          {"weights": len(ws), "masses": len(cs)})
    pooled: dict = {}
    for w, c in zip(ws, cs):
        if c <= 0:
            raise GitkitError("bad_input", "masses must be positive", {"mass": fmt_rat(c)})
        pooled[w] = pooled.get(w, 0) + c
    return ProjPoint(tuple(sorted((w, rat(c)) for w, c in pooled.items())))


def moment_map(x: ProjPoint, shift: Weight | None = None) -> Weight:
    """Mass-weighted average of the support weights, minus an optional shift."""
    record(ProjPoint, "a point", x)
    total = sum(c for _, c in x.support)
    out = tuple(rat(sum(Fraction(c) * Fraction(w[k]) for w, c in x.support) / total)
                for k in range(x.rank))
    if shift is not None:
        out = wsub(out, weight(shift))
    return out


def orbit_moment_polytope(x: ProjPoint) -> Polytope:
    record(ProjPoint, "a point", x)
    return hull(x.weights)


def _float(x, what: str) -> float:
    """float(x), or a coded error when x is past float range."""
    try:
        return float(x)
    except OverflowError:
        raise GitkitError("float_overflow", f"{what} is beyond float range", {}) from None


@dataclass(frozen=True)
class Stable:
    verdict: str = "Stable"


@dataclass(frozen=True)
class Polystable:
    stabilizer_dim: int
    verdict: str = "Polystable"


@dataclass(frozen=True)
class SemistableNotPolystable:
    jh_face: tuple          # vertices of the minimal hull face containing 0
    verdict: str = "SemistableNotPolystable"


@dataclass(frozen=True)
class Unstable:
    lam_star: tuple
    slope_sq: Fraction      # squared descent speed; the slope itself is -sqrt
    verdict: str = "Unstable"

    @property
    def slope(self) -> float:
        return -math.sqrt(_float(self.slope_sq, "slope_sq"))


def verdict_to_json(v) -> dict:
    if isinstance(v, Stable):
        return {"verdict": "Stable"}
    if isinstance(v, Polystable):
        return {"verdict": "Polystable", "stabilizer_dim": v.stabilizer_dim}
    if isinstance(v, SemistableNotPolystable):
        return {"verdict": "SemistableNotPolystable",
                "jh_face": [weight_to_json(w) for w in v.jh_face]}
    if isinstance(v, Unstable):
        return {"verdict": "Unstable", "lam_star": weight_to_json(v.lam_star),
                "slope_sq": fmt_rat(v.slope_sq), "slope": v.slope}
    raise GitkitError("internal", "unknown verdict", {})


def _project_origin_affine(points):
    """Orthogonal projection of the origin onto the affine span of `points`.

    Returns (p, affine coefficients) or None when the points are affinely
    dependent.  Exact: the Gram system is solved in integers, with the
    points scaled by the lcm of their denominators, and only its solution
    is read back as Fractions."""
    q0 = points[0]
    m = len(points) - 1
    if m == 0:
        return q0, (Fraction(1),)
    scale, iq = integer_frame(points)
    vecs = [[a - b for a, b in zip(q, iq[0])] for q in iq[1:]]
    # solve gram . a = rhs; singular gram means dependent points
    red, pivots, _ = _bareiss([[sum(x * y for x, y in zip(u, v)) for v in vecs]
                               + [-sum(x * y for x, y in zip(u, iq[0]))] for u in vecs])
    if len(pivots) != m or m in pivots:
        return None
    delta = red[0][pivots[0]]
    a = [Fraction(row[m], delta) for row in red]
    p = tuple(rat(Fraction(delta * c + sum(row[m] * v[k] for row, v in zip(red, vecs)),
                           delta * scale)) for k, c in enumerate(iq[0]))
    return p, (Fraction(1) - sum(a),) + tuple(a)


def _positive_projections(pts: tuple):
    """Projections of the origin onto aff(T), for each affinely independent
    T of at most rank+1 of the points, that lie strictly inside conv(T)."""
    for size in range(1, min(len(pts), len(pts[0]) + 1) + 1):
        for sub in itertools.combinations(pts, size):
            res = _project_origin_affine(sub)
            if res is not None and all(c > 0 for c in res[1]):
                yield res[0]


def nearest_point_of_hull(weights) -> tuple[Weight, Fraction]:
    """Exact closest point of conv(weights) to the origin, with its squared norm.

    Wolfe's nearest-point method (Math. Programming 11, 1976), in exact
    arithmetic, where it is finite and returns the unique nearest point."""
    return _nearest_point(_point_set(weights))


@functools.lru_cache(maxsize=1024)
def _nearest_point(pts: tuple) -> tuple[Weight, Fraction]:
    # x is the projection of the origin onto the span of the corral, the
    # weights that hold it in the relative interior of their hull, each with
    # its barycentric coefficient
    _, x = min((wnorm_sq(q), q) for q in pts)
    corral = {x: Fraction(1)}
    while True:
        xx = wnorm_sq(x)
        xw, w = min((wdot(x, q), q) for q in pts)
        if xw >= xx:
            return x, Fraction(xx)
        # <x, w> < |x|^2 puts w off the corral's span, and the projection onto
        # the larger span gives w a positive coefficient
        corral[w] = Fraction(0)
        while True:
            res = _project_origin_affine(tuple(corral))
            if res is None:
                raise GitkitError("internal", "nearest point corral is affinely dependent",
                                  {"corral": [weight_to_json(q) for q in corral]})
            y, coeffs = res
            if all(c > 0 for c in coeffs):
                x, corral = y, dict(zip(corral, coeffs))
                break
            # walk from x toward y until a coefficient reaches 0; drop those that do
            theta = min(lam / (lam - c) for lam, c in zip(corral.values(), coeffs) if c <= 0)
            corral = {q: lam + theta * (c - lam) for (q, lam), c in zip(corral.items(), coeffs)}
            corral = {q: lam for q, lam in corral.items() if lam > 0}


def max_destabilizing(x: ProjPoint):
    """Worst one-parameter direction, or None when the point is semistable.

    The direction is the negative of the hull point nearest the origin; its
    normalized slope is -sqrt(slope_sq).
    """
    record(ProjPoint, "a point", x)
    p, ns = nearest_point_of_hull(x.weights)
    if ns == 0:
        return None
    return Unstable(lam_star=wneg(p), slope_sq=ns)


def _origin_face(x: ProjPoint):
    """The hull of x's weights and the normals of its facets through the
    origin, read off the offsets; None when the origin lies outside the hull."""
    record(ProjPoint, "a point", x)
    h = hull(x.weights)
    if any(off for _, off in h.equations) or any(off > 0 for _, off in h.facets):
        return None
    return h, [n for n, off in h.facets if off == 0]


def classify_stability(x: ProjPoint):
    """Exact verdict from the position of the origin in the weight hull; the
    facets through the origin, if any, cut out the Jordan-Holder face."""
    if (face := _origin_face(x)) is None:
        return max_destabilizing(x)
    h, active = face
    if not active:
        if h.dim == x.rank:
            return Stable()
        return Polystable(stabilizer_dim=x.rank - h.dim)
    verts = tuple(v for v in h.vertices if all(sum(map(mul, n, v)) == 0 for n in active))
    return SemistableNotPolystable(jh_face=verts)


@dataclass(frozen=True)
class HMSlope:
    """Normalized worst pairing max_j <w_j, lam> / |lam|, kept exact as a
    (numerator, |lam|^2) pair."""
    num: Fraction
    lam_normsq: Fraction

    @property
    def value(self) -> float:
        try:
            v = float(self.num) / math.sqrt(float(self.lam_normsq))
        except (OverflowError, ZeroDivisionError):
            v = math.inf
        if math.isfinite(v):
            return v
        # a part is past float range, though the value may not be: take the
        # root of its exact square
        root = math.sqrt(_float(self.num * self.num / self.lam_normsq, "slope"))
        return -root if self.num < 0 else root


def hm_slope(x: ProjPoint, lam: Weight) -> HMSlope:
    lam = weight(lam)
    ns = Fraction(wnorm_sq(lam))
    if ns == 0:
        raise GitkitError("zero_direction", "slope of the zero direction", {})
    record(ProjPoint, "a point", x)
    num = max(Fraction(wdot(w, lam)) for w in x.weights)
    return HMSlope(num, ns)


def associated_graded(x: ProjPoint, lam: Weight) -> ProjPoint:
    """Limit point along the direction lam: support drops to the weights with
    the maximal pairing."""
    lam = weight(lam)
    record(ProjPoint, "a point", x)
    vals = [wdot(w, lam) for w, _ in x.support]
    m = max(vals)
    kept = [(w, c) for (w, c), v in zip(x.support, vals) if v == m]
    return ProjPoint(tuple(kept))


def jordan_holder_cone(x: ProjPoint) -> tuple:
    """Directions whose graded limit is polystable: the inward normals of the
    hull facets through the origin.  Empty tuple when already polystable;
    unstable points (origin outside the hull) have no such cone."""
    if (face := _origin_face(x)) is None:
        raise GitkitError("unstable", "unstable points have no polystable degeneration", {})
    return tuple(sorted(wneg(n) for n in face[1]))


def critical_types(weights) -> set:
    """Critical values of the squared moment norm (Kirwan, Ness): the points
    beta nearest the origin in conv{w : <w, beta> = |beta|^2}, which by
    Caratheodory are exactly the positive projections of the origin."""
    pts = _point_set(weights)
    r = len(pts[0])
    if len(pts) > 12 or r > 4:
        raise GitkitError("too_large", "critical type scan capped at 12 weights, rank 4",
                          {"weights": len(pts), "rank": r})
    return set(_positive_projections(pts))


def product(x: ProjPoint, y: ProjPoint) -> ProjPoint:
    """Segre product: weights add pairwise, masses multiply, duplicates pool."""
    record(ProjPoint, "a point", x, y)
    if x.rank != y.rank:
        raise GitkitError("rank_mismatch", "product factors must share a rank",
                          {"left": x.rank, "right": y.rank})
    ws, cs = [], []
    for w1, c1 in x.support:
        for w2, c2 in y.support:
            ws.append(wadd(w1, w2))
            cs.append(c1 * c2)
    return proj_point(ws, cs)


def _float_data(x: ProjPoint):
    """Float weights and log-masses of a point, for the kernel below."""
    record(ProjPoint, "a point", x)
    ws = [[_float(c, "weight") for c in w] for w, _ in x.support]
    cs = [_float(c, "mass") for _, c in x.support]
    if 0.0 in cs:
        raise GitkitError("float_underflow", "mass is below float range", {})
    return ws, [math.log(c) for c in cs]


def _float_direction(xi, r: int) -> tuple:
    """xi, read as rationals by lie.weight, as floats."""
    if len(xi := tuple(_float(v, "direction") for v in weight(xi))) != r:
        raise GitkitError("rank_mismatch", "direction length does not match rank",
                          {"rank": r, "xi": len(xi)})
    return xi


def _psi_value(ws, logc, xi):
    """Value of psi at xi from float weights and log-masses, with the shifted
    exponentials and their sum that `_psi_gradient` turns into masses and
    gradient; the half of the float kernel that every Armijo trial runs."""
    exps = [lc - 2.0 * sum(map(mul, w, xi)) for w, lc in zip(ws, logc)]
    m = max(exps)
    raw = [math.exp(e - m) for e in exps]
    z = sum(raw)
    return 0.5 * (m + math.log(z)), raw, z


def _psi_gradient(cols, raw, z):
    """Softmax masses and gradient of psi from one `_psi_value` call's raw
    exponentials and sum; cols holds the weight coordinates axis by axis."""
    masses = [v / z for v in raw]
    return masses, tuple(-sum(map(mul, col, masses)) for col in cols)


def _psi(ws, cols, logc, xi):
    """Value, softmax masses and gradient of psi at a caller's xi; a value
    past float range is a coded error, not a NaN."""
    value, raw, z = _psi_value(ws, logc, xi)
    if not math.isfinite(value):
        raise GitkitError("float_overflow", "psi is beyond float range", {})
    return (value, *_psi_gradient(cols, raw, z))


def kempf_ness(x: ProjPoint, xi) -> tuple[float, tuple]:
    """Value and gradient of the convexified norm functional
    psi(xi) = (1/2) log sum_j c_j exp(-2 <w_j, xi>).

    The gradient is minus the softmax-weighted average of the weights, i.e.
    minus the moment map of the flowed point."""
    ws, logc = _float_data(x)
    value, _, grad = _psi(ws, list(zip(*ws)), logc, _float_direction(xi, x.rank))
    return value, grad


def _certified_nearest(ws, masses):
    """Float projection of the origin onto the destabilizing face.

    The candidate face is read off the softmax masses, the origin is
    projected onto its affine span by least squares, and weights whose
    barycentric coefficient comes out negative are pruned.  The result is
    accepted only when the optimality conditions for nearest-point
    projection onto the full weight hull pass with tight margins, so an
    accepted answer is within about 1e-6 of the true projection.  Returns
    the projection or None."""
    mtop = max(masses)
    live = [j for j, mj in enumerate(masses) if mj > 1e-6 * mtop]
    aw = numpy.array(ws, dtype=float)
    scale2 = max(1.0, float(numpy.max(numpy.sum(aw * aw, axis=1))))
    # the coefficients sum to 1, so the largest is never pruned, and a single
    # weight has coefficient 1: the loop ends with a face
    while True:
        base = aw[live[0]]
        if len(live) == 1:
            p, coeffs = base, [1.0]
        else:
            span = aw[live[1:]] - base
            b, *_ = numpy.linalg.lstsq(span.T, -base, rcond=None)
            p = base + span.T @ b
            coeffs = numpy.concatenate(([1.0 - b.sum()], b))
        neg = [live[i] for i, a in enumerate(coeffs) if a < -1e-9]
        if not neg:
            break
        live = [j for j in live if j not in neg]
    nsq = float(p @ p)
    if nsq < 1e-12 * scale2:
        return None
    if numpy.min(aw @ p) < nsq - 1e-12 * scale2:
        return None
    return tuple(float(v) for v in p)


# Armijo line search: first trial step, backtracking factor, sufficient
# decrease; an escape is first certified at twice ESCAPE_RADIUS
INIT_STEP = 1.0
BACKTRACK = 0.5
ARMIJO = 1e-4
ESCAPE_RADIUS = 50.0


@dataclass(frozen=True)
class Converged:
    xi: tuple
    value: float
    residual: float          # gradient norm = moment map size at the minimizer
    iterations: int
    outcome: str = "Converged"


@dataclass(frozen=True)
class Escaped:
    direction: tuple         # unit vector, matches the worst destabilizer lam*
    slope: float             # asymptotic decrease rate per unit length
    iterations: int
    outcome: str = "Escaped"


def minimize_kempf_ness(x: ProjPoint, xi0=None, tol: float = 1e-8,
                        max_iter: int = 100000):
    """Armijo-backtracking gradient descent on the norm functional.

    Converged: gradient norm under tol.  Escaped: once the iterate leaves the
    ball of radius 2 * ESCAPE_RADIUS, the softmax masses single out the
    destabilizing face and the reported direction and slope come from the
    certified projection of the origin onto that face; if certification
    fails the flow continues to twice the radius, where the face separation
    is exponentially sharper, and tries again.  The direction matches the
    destabilizer convention (it points away from the weight hull).
    The line search ends at a step below 1e-18 or one that leaves xi
    unchanged (it would repeat the same state until max_iter): converged if
    the gradient norm is under 10 * tol, `line_search_stalled` otherwise.
    Exhausting max_iter raises.  The data are converted to floats once.  A
    trial step runs only `_psi_value`; the accepted one then runs
    `_psi_gradient` on the same exponentials, so masses and gradient, which
    the escape check and the next step read, are built once per iteration.
    """
    if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
            or not math.isfinite(tol) or tol <= 0):
        raise GitkitError("bad_input", "tol must be a finite positive number",
                          {"tol": repr(tol)})
    if (max_iter := integer(max_iter, "max_iter")) < 1:
        raise GitkitError("bad_input", "max_iter must be a positive integer",
                          {"max_iter": repr(max_iter)})
    record(ProjPoint, "a point", x)
    r = x.rank
    xi = _float_direction(xi0 if xi0 is not None else (0.0,) * r, r)
    ws, logc = _float_data(x)
    cols = list(zip(*ws))
    check_at = 2.0 * ESCAPE_RADIUS
    val, masses, grad = _psi(ws, cols, logc, xi)
    gn = math.sqrt(sum(map(mul, grad, grad)))
    if not math.isfinite(gn):
        raise GitkitError("float_overflow", "gradient is beyond float range", {})
    for it in range(1, max_iter + 1):
        if gn < tol:
            return Converged(xi=xi, value=val, residual=gn, iterations=it)
        radius = math.sqrt(sum(map(mul, xi, xi)))
        if radius >= check_at:
            p = _certified_nearest(ws, masses)
            if p is not None:
                pn = math.sqrt(sum(v * v for v in p))
                direction = tuple(-v / pn + 0.0 for v in p)
                return Escaped(direction=direction, slope=-pn, iterations=it)
            check_at *= 2.0
        step = INIT_STEP
        while True:
            cand = tuple(a - step * g for a, g in zip(xi, grad))
            if step < 1e-18 or cand == xi:
                if gn < 10 * tol:
                    return Converged(xi=xi, value=val, residual=gn, iterations=it)
                raise GitkitError("line_search_stalled",
                                  "descent line search stalled above tolerance",
                                  {"residual": gn})
            cval, raw, z = _psi_value(ws, logc, cand)
            if cval <= val - ARMIJO * step * gn * gn:
                xi, val = cand, cval
                masses, grad = _psi_gradient(cols, raw, z)
                gn = math.sqrt(sum(map(mul, grad, grad)))
                break
            step *= BACKTRACK
    raise GitkitError("descent_exhausted",
                      f"no verdict within {max_iter} iterations", {"residual": gn})
