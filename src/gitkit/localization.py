"""Fixed-point localization sums and their exact bookkeeping.

A ConeSeries is a finite sum of terms  num / prod_b (1 - t^b), each carrying
an expansion direction xi with <b, xi> < 0 for every denominator exponent b,
so the geometric expansion of each factor moves strictly down in the xi
pairing.  Two consistency notions coexist and must not be conflated:

 * rational equality: put everything over a common denominator and compare
   numerators exactly;
 * box expansion: expand each term as a power series in its own direction and
   compare coefficients inside a finite exponent box.

A sum can vanish rationally while its box expansions reproduce a delta-comb,
which is precisely what the circle-action identities exercise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from .characters import (
    LaurentPoly,
    _exponent,
    _integral,
    _monomial_at,
    positive_roots,
    weyl_alternant,
    weyl_character,
)
from .lie import (
    GitkitError,
    entries,
    fmt_rat,
    integer,
    is_int,
    is_integral,
    wdot,
    weight,
)
from .polytopes import Polytope


@dataclass(frozen=True)
class Term:
    num: LaurentPoly
    den: tuple              # integer exponent tuples b, factor (1 - t^b) each
    dir: tuple              # rational direction with <b, dir> < 0 for all b

    def __post_init__(self):
        if not isinstance(self.num, LaurentPoly):
            raise GitkitError("bad_input", "a term's numerator must be a LaurentPoly",
                              {"type": type(self.num).__name__})
        r = self.num.rank
        object.__setattr__(self, "den", tuple(
            _exponent(entries(b), "denominator exponents must be integers")
            for b in entries(self.den)))
        object.__setattr__(self, "dir", weight(self.dir))
        if len(self.dir) != r:
            raise GitkitError("rank_mismatch", "direction length does not match rank",
                              {"rank": r, "dir": len(self.dir)})
        for b in self.den:
            if len(b) != r:
                raise GitkitError("rank_mismatch", "denominator exponent length mismatch",
                                  {"rank": r, "exponent": list(b)})
            if all(x == 0 for x in b):
                raise GitkitError("bad_term", "denominator exponent must be nonzero", {})
            if wdot(b, self.dir) >= 0:
                raise GitkitError("bad_direction",
                                  "expansion direction must pair negatively with every "
                                  "denominator exponent",
                                  {"exponent": list(b)})

    @classmethod
    def _of(cls, num: LaurentPoly, den: tuple, dir: tuple) -> "Term":
        """A term from checked parts: den's nonzero int exponent tuples of num's
        rank each pair negatively with dir, a canonical (lie.weight) direction."""
        term = object.__new__(cls)
        term.__dict__.update(num=num, den=den, dir=dir)
        return term


@dataclass(frozen=True)
class ConeSeries:
    terms: tuple

    def __post_init__(self):
        if not isinstance(self.terms, tuple) or not all(isinstance(t, Term) for t in self.terms):
            raise GitkitError("bad_input", "a series must be a tuple of Terms", {})
        ranks = {t.num.rank for t in self.terms}
        if len(ranks) > 1:
            raise GitkitError("rank_mismatch", "series terms have different ranks",
                              {"ranks": sorted(ranks)})

    @property
    def rank(self) -> int:
        if not self.terms:
            raise GitkitError("bad_series", "empty series has no rank", {})
        return self.terms[0].num.rank

    def __add__(self, other: "ConeSeries") -> "ConeSeries":
        return ConeSeries(self.terms + other.terms)

    def scale(self, c: int) -> "ConeSeries":
        return ConeSeries(tuple(Term(t.num.scale(c), t.den, t.dir) for t in self.terms))

    def to_json(self) -> list:
        return [{"num": t.num.to_json(), "den": [list(b) for b in t.den],
                 "dir": [fmt_rat(x) for x in t.dir]} for t in self.terms]

    @staticmethod
    def from_json(arr) -> "ConeSeries":
        if not isinstance(arr, list) or not all(
                isinstance(item, dict) and {"num", "den", "dir"} <= item.keys() for item in arr):
            raise GitkitError("bad_input", "a series must be a list of terms, each an "
                              "object with keys num, den and dir", {})
        terms = []
        for i, item in enumerate(arr):
            den, xi = item["den"], item["dir"]
            if not (isinstance(den, list) and isinstance(xi, list) and all(
                    isinstance(b, list) and all(map(is_int, b)) for b in den)):
                raise GitkitError("bad_input", "a term needs den, a list of integer exponent "
                                  "lists, and dir, a list of rationals", {"term": i})
            num = LaurentPoly.from_json(item["num"], rank=len(xi))
            terms.append(Term(num, den, xi))
        return ConeSeries(tuple(terms))


def _series(*series) -> None:
    if not all(isinstance(s, ConeSeries) for s in series):
        raise GitkitError("bad_input", "a series must be a ConeSeries",
                          {"types": [type(s).__name__ for s in series]})


def evaluate(series: ConeSeries, point) -> Fraction:
    """Exact value at a rational point; hitting a denominator zero raises and
    asks for a different sample point.

    Each coordinate is an integer pair (p, q), each monomial's value an
    integer pair (`_monomial_at`), and every term and the running sum are
    integer (numerator, denominator) pairs: one Fraction is made, at the end."""
    _series(series)
    pq = [(x.numerator, x.denominator) for x in weight(point)]
    num, den = 0, 1
    for t in series.terms:
        vn, vd = t.num._value_at(pq)
        for b in t.den:
            n, d = _monomial_at(b, pq)
            if not d:
                raise GitkitError("pole", "zero coordinate with negative exponent; "
                                  "pick another sample point", {})
            if n == d:
                raise GitkitError("pole", "sample point lies on a denominator zero; "
                                  "pick another sample point",
                                  {"exponent": list(b)})
            vn, vd = vn * d, vd * (d - n)     # divided by 1 - n/d
        g = math.gcd(den, vd)
        num, den = num * (vd // g) + vn * (den // g), den * (vd // g)
    return Fraction(num, den)


def _lex_positive(b: tuple) -> bool:
    for x in b:
        if x != 0:
            return x > 0
    return False


def rational_sum(series: ConeSeries) -> tuple[LaurentPoly, tuple]:
    """Common-denominator normal form (numerator, sorted denominator exponents).

    Every factor is flipped to a lex-positive exponent first, so mirrored
    denominators cancel structurally."""
    _series(series)
    r = series.rank
    flipped = []
    den_count: dict = {}
    for t in series.terms:
        num = t.num
        count: dict = {}
        for b in t.den:
            if _lex_positive(b):
                bb = b
            else:
                bb = tuple(-x for x in b)
                # 1/(1 - t^b) = -t^bb / (1 - t^bb)
                num = num * LaurentPoly.monomial(bb, -1)
            count[bb] = count.get(bb, 0) + 1
        flipped.append((num, count))
        for bb, k in count.items():
            den_count[bb] = max(den_count.get(bb, 0), k)
    total = LaurentPoly.zero(r)
    for num, count in flipped:
        piece = num
        for bb, k in den_count.items():
            missing = k - count.get(bb, 0)
            if missing:
                factor = LaurentPoly(r, {(0,) * r: 1, bb: -1})
                for _ in range(missing):
                    piece = piece * factor
        total = total + piece
    den = tuple(sorted(itertools.chain.from_iterable([bb] * k for bb, k in den_count.items())))
    return total, den


def rational_eq(s1: ConeSeries, s2: ConeSeries) -> bool:
    """Equality as rational functions, exact."""
    _series(s1, s2)
    diff = ConeSeries(s1.terms + s2.scale(-1).terms)
    num, _den = rational_sum(diff)
    return num.is_zero()


BOX_POINTS_CAP = 10 ** 6


def expand_in_box(series: ConeSeries, box) -> LaurentPoly:
    """Sum of the per-term power-series expansions, truncated to an exponent box.

    Each term expands every factor 1/(1 - t^b) as a geometric series in its
    own direction xi: a walk v, v+b, v+2b, ...  Three rules cut the walks, and
    each drops only monomials that can no longer reach the box:

     * integer pairing: xi and the box minimum of the pairing are scaled to
       integers by the lcm of xi's denominators.  A walk stops below that
       minimum, since every further factor only lowers the pairing.
     * per-stage bounds: before factor j, a coordinate that all of den[j:]
       move only down (b[i] <= 0) must be >= its box low, and one they move
       only up (b[i] >= 0) <= its box high.  Monomials that fail are not
       stored.  After the last factor the bounds are the box: no final filter.
     * early break: a walk stops once b has moved a coordinate past a box
       side that no later factor moves back.  Steps short of a side that b
       moves toward are not stored, and the walk goes on.

    The kept steps of a walk are thus a range k_lo..k_hi, found by floor division.

    The expansion is linear in the numerator and the cuts depend only on the
    monomial, den, dir and the box, so each run of consecutive terms with
    equal (den, dir) is walked once, from the sum of its numerators.  Entries
    that sum to zero are walked too, so every monomial is still first reached
    along the same path as term by term, and the output keeps its order.

    A box entry must be a (lo, hi) pair of integers with lo <= hi (bad_box),
    and a box of more than BOX_POINTS_CAP points is refused (too_large)."""
    _series(series)
    r = series.rank
    if not isinstance(box, (tuple, list)):
        raise GitkitError("bad_box", "a box must be a list of (lo, hi) pairs", {})
    for entry in box:
        if not (isinstance(entry, (tuple, list)) and len(entry) == 2 and all(map(is_int, entry))):
            raise GitkitError("bad_box", "each box entry must be a (lo, hi) pair of integers",
                              {"entry": repr(entry)})
    box = [weight(entry) for entry in box]
    if len(box) != r:
        raise GitkitError("rank_mismatch", "box length does not match rank",
                          {"rank": r, "box": len(box)})
    if any(lo > hi for lo, hi in box):
        raise GitkitError("bad_box", "box bounds must satisfy lo <= hi", {})
    points = math.prod(hi - lo + 1 for lo, hi in box)
    if points > BOX_POINTS_CAP:
        raise GitkitError("too_large", f"box expansion capped at {BOX_POINTS_CAP} box points",
                          {"points": points, "cap": BOX_POINTS_CAP})
    out: dict = {}
    for (den, direction), run in itertools.groupby(series.terms, lambda t: (t.den, t.dir)):
        cur: dict = {}
        for t in run:
            for w, c in t.num.terms.items():
                cur[w] = cur.get(w, 0) + c
        scale = math.lcm(*(Fraction(x).denominator for x in direction))
        xi = tuple(int(x * scale) for x in direction)
        minval = sum(min(x * lo, x * hi) for x, (lo, hi) in zip(xi, box))
        # stages[j]: the (i, s, m) with s * v[i] >= m required before factor j
        stages = [[(i, s, s * side) for i, (lo, hi) in enumerate(box)
                   for s, side in ((1, lo), (-1, hi))
                   if all(s * b[i] <= 0 for b in den[j:])]
                  for j in range(len(den) + 1)]
        cur = {w: c for w, c in cur.items()
               if sum(map(mul, w, xi)) >= minval and all(s * w[i] >= m for i, s, m in stages[0])}
        for b, bounds in zip(den, stages[1:]):
            step = sum(map(mul, b, xi))   # strictly negative
            # the bounds b moves: a == s * b[i] != 0 (w met the others at stage j)
            cuts = [(i, s * b[i], s, m) for i, s, m in bounds if b[i]]
            nxt: dict = {}
            for w, c in cur.items():
                k_lo, k_hi = 0, (minval - sum(map(mul, w, xi))) // step
                for i, a, s, m in cuts:
                    if a > 0:    # b moves toward the side: skip the steps short of it
                        k_lo = max(k_lo, -((s * w[i] - m) // a))
                    else:        # b moves away from it: the early break
                        k_hi = min(k_hi, (m - s * w[i]) // a)
                if k_lo > k_hi:
                    continue
                v = tuple(x + k_lo * y for x, y in zip(w, b)) if k_lo else w
                for _ in range(k_hi - k_lo + 1):
                    nxt[v] = nxt.get(v, 0) + c
                    v = tuple(map(add, v, b))
            cur = nxt
        for w, c in cur.items():
            out[w] = out.get(w, 0) + c
    return LaurentPoly._of(r, {w: c for w, c in out.items() if c})


def _generic_direction(r: int, edge_dirs) -> tuple:
    for k in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        xi = tuple(k ** i for i in range(r))
        if all(wdot(e, xi) != 0 for e in edge_dirs):
            return xi
    raise GitkitError("no_direction", "could not find a generic direction", {})


def vertex_sum(p: Polytope) -> ConeSeries:
    """Lattice-point generating series of a smooth lattice polytope as a sum of
    vertex cone contributions, all normalized to one shared generic direction.

    Each vertex contributes t^v / prod_e (1 - t^e) over its primitive inward
    edge directions; factors pairing positively with the chosen direction are
    flipped, so every term expands in the same chamber and the box expansion
    of the sum is exactly the lattice-point indicator."""
    r = p.rank
    for v in p.vertices:
        if not is_integral(v):
            raise GitkitError("not_lattice", "vertex sum needs integer vertices",
                              {"vertex": [fmt_rat(x) for x in v]})
    d = p.dim
    if r > 4:
        raise GitkitError("rank_too_large", "vertex sums supported up to rank 4", {"rank": r})
    if d == 0:
        v = p.vertices[0]
        xi = tuple(Fraction(1) for _ in range(r))
        return ConeSeries((Term(LaurentPoly.monomial(tuple(int(x) for x in v), 1), (), xi),))
    dirs = p.edge_frames()
    for v, es in dirs.items():
        if len(es) != d:
            raise GitkitError("not_smooth", "vertex does not have dim-many edges",
                              {"vertex": [fmt_rat(x) for x in v], "edges": len(es)})
        if p._frame_indices[v] != 1:
            span = "" if d == r else " in its span"
            raise GitkitError("not_smooth", "edge frame is not unimodular" + span,
                              {"vertex": [fmt_rat(x) for x in v]})
    all_dirs = sorted({e for es in dirs.values() for e in es})
    xi = weight(_generic_direction(r, all_dirs))
    terms = []
    for v in p.vertices:
        # 1/(1 - t^e) = -t^-e / (1 - t^-e) flips each e with <e, xi> > 0
        w, sign, den = tuple(int(x) for x in v), 1, []
        for e in dirs[v]:
            if sum(map(mul, e, xi)) > 0:
                e = tuple(-x for x in e)
                w, sign = tuple(map(add, w, e)), -sign
            den.append(e)
        terms.append(Term._of(LaurentPoly._of(r, {w: sign}), tuple(sorted(den)), xi))
    return ConeSeries(tuple(terms))


def p1_chi(d: int) -> ConeSeries:
    """Equivariant Euler characteristic of O(d) on the projective line, in the
    symmetric convention: fixed-point terms z^d/(1 - z^-2) + z^-d/(1 - z^2)."""
    d = integer(d, "d")
    return ConeSeries((
        Term(LaurentPoly.monomial((d,), 1), ((-2,),), (Fraction(1),)),
        Term(LaurentPoly.monomial((-d,), 1), ((2,),), (Fraction(-1),)),
    ))


@dataclass(frozen=True)
class P1Report:
    d: int
    box: tuple
    passed: bool
    expansion: LaurentPoly


def p1_kn_identity(d: int) -> P1Report:
    """Paired-expansion identity on the projective line.

    The irreducible character sum_{k=0..d} z^{d-2k} equals the four-term
    localization sum  z^d/(1-z^2) + z^{d-2}/(1-z^-2) - z^{d+2}/(1-z^2)
    - z^{-d-2}/(1-z^-2)  in every finite box, even though the first two terms
    alone form a comb that vanishes rationally.  Checked by exact expansion."""
    d = integer(d, "d")
    if d < 0 or d > 50:
        raise GitkitError("bad_input", "degree must be between 0 and 50", {"d": d})
    lhs_poly = LaurentPoly(1, {(d - 2 * k,): 1 for k in range(d + 1)})
    lhs = ConeSeries((Term(lhs_poly, (), (Fraction(1),)),))
    up, down = (Fraction(-1),), (Fraction(1),)
    rhs = ConeSeries((
        Term(LaurentPoly.monomial((d,), 1), ((2,),), up),
        Term(LaurentPoly.monomial((d - 2,), 1), ((-2,),), down),
        Term(LaurentPoly.monomial((d + 2,), -1), ((2,),), up),
        Term(LaurentPoly.monomial((-d - 2,), -1), ((-2,),), down),
    ))
    box = ((-(d + 6), d + 6),)
    le = expand_in_box(lhs, box)
    re = expand_in_box(rhs, box)
    # the comb pair is rationally zero, so the rational content comes from the
    # last two terms alone
    comb = ConeSeries(rhs.terms[:2])
    comb_zero = rational_eq(comb, ConeSeries((Term(LaurentPoly.zero(1), (), down),)))
    passed = (le == re) and comb_zero and le == lhs_poly
    return P1Report(d, box, passed, le)


@dataclass(frozen=True)
class BlowupReport:
    d: int
    e: int
    chi: int
    h0: tuple
    h1: tuple


def blowup_chi(d: int, e: int) -> tuple[ConeSeries, BlowupReport]:
    """Four-fixed-point localization sum on the blown-up plane for the line
    bundle indexed by (d, e), plus the sign-split of its box expansion.

    Positive coefficients are section weights, negative ones obstruction
    weights; for d >= e >= 0 the positive part fills the lattice trapezoid
    e <= x + y <= d in the first quadrant."""
    d, e = integer(d, "d"), integer(e, "e")
    if abs(d) > 200 or abs(e) > 200:
        raise GitkitError("bad_input", "d and e must be between -200 and 200",
                          {"d": d, "e": e})
    xi = (Fraction(-1), Fraction(-2))
    terms = (
        Term(LaurentPoly.monomial((e, 0), 1), ((1, 0), (-1, 1)), xi),
        Term(LaurentPoly.monomial((-1, e + 1), -1), ((-1, 1), (0, 1)), xi),
        Term(LaurentPoly.monomial((d + 1, 0), -1), ((1, 0), (-1, 1)), xi),
        Term(LaurentPoly.monomial((-1, d + 2), 1), ((-1, 1), (0, 1)), xi),
    )
    series = ConeSeries(terms)
    m = max(d, e, 0)
    box = ((-2, m + 2), (-2, m + 3))
    poly = expand_in_box(series, box)
    h0 = tuple(sorted(w for w, c in poly.terms.items() if c > 0))
    h1 = tuple(sorted(w for w, c in poly.terms.items() if c < 0))
    chi = poly.total_coeff_sum()
    return series, BlowupReport(d, e, chi, h0, h1)


def weyl_via_localization(lam) -> tuple[ConeSeries, LaurentPoly]:
    """Character of an irreducible as a fixed-point sum over the symmetric
    group: term t^{w(lam+rho)-rho} times sgn(w), all sharing the denominator
    prod over positive roots of (1 - t^{-alpha}) and one decreasing direction.

    Returns the series and its box expansion over the weight hull, which the
    direct character construction must reproduce exactly."""
    lam = _integral(lam, "highest weight must have integer entries")
    r = len(lam)
    if r > 4:
        raise GitkitError("rank_too_large", "localization characters capped at rank 4",
                          {"rank": r})
    if any(lam[i] < lam[i + 1] for i in range(r - 1)):
        raise GitkitError("not_dominant", "weight entries must be weakly decreasing",
                          {"weight": list(lam)})
    dens = tuple(sorted(tuple(-x for x in a) for a in positive_roots(r)))
    shape = Term(LaurentPoly.one(r), dens, tuple(r - i for i in range(r)))  # checked once
    series = ConeSeries(tuple(Term._of(LaurentPoly._of(r, {w: sign}), shape.den, shape.dir)
                              for w, sign in weyl_alternant(lam)))
    lo, hi = min(lam), max(lam)
    box = tuple((lo, hi) for _ in range(r))
    expansion = expand_in_box(series, box)
    if expansion != weyl_character(lam):
        raise GitkitError("internal", "localization expansion disagrees with the "
                          "direct character", {"weight": list(lam)})
    return series, expansion
