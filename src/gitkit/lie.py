"""Exact weight-lattice and symmetric-group primitives shared by every module.

Weights are plain tuples of exact rationals (ints where the value is integral,
fractions.Fraction otherwise).  Mixed int/Fraction tuples hash and compare
consistently, so weights can key dicts directly.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm, prod
from numbers import Integral

Weight = tuple


class GitkitError(Exception):
    """Domain error carrying a machine-readable code and context."""

    def __init__(self, code: str, message: str, context: dict | None = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.context = context or {}


def rat(x) -> int | Fraction:
    """Canonicalize a rational: Fraction with denominator 1 becomes int.  A value
    Fraction() cannot take (text, None, NaN, an infinity) is refused."""
    if isinstance(x, bool):
        raise GitkitError("bad_rational", "boolean is not a rational", {"value": repr(x)})
    if isinstance(x, int):
        return x
    try:
        f = Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError):
        raise GitkitError("bad_rational", f"cannot parse a rational from {x!r}", {})
    return int(f) if f.denominator == 1 else f


def is_int(x) -> bool:
    """The integer rule: a numbers.Integral that is not a bool.  So an integral
    float (2.0) or Fraction(4, 2) is not an integer, while numpy's ints are."""
    return type(x) is int or (isinstance(x, Integral) and not isinstance(x, bool))


def integer(x, what: str) -> int:
    """x as an int, refused (bad_input) unless is_int(x)."""
    if not is_int(x):
        raise GitkitError("bad_input", f"{what} must be an integer", {what: repr(x)})
    return int(x)


def entries(x) -> tuple:
    """The entries of a list, a tuple or any other iterable but text or a dict;
    anything else is refused (bad_input)."""
    if type(x) is tuple:
        return x
    if isinstance(x, (str, bytes, dict)) or not isinstance(x, Iterable):
        raise GitkitError("bad_input", "expected a list of values", {"type": type(x).__name__})
    return tuple(x)


def fmt_rat(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def weight(coords) -> Weight:
    """coords as a tuple of canonical exact rationals (`rat`); a tuple of ints is
    one already."""
    if type(coords) is tuple and all(type(c) is int for c in coords):
        return coords
    return tuple(map(rat, entries(coords)))


def weight_from_json(arr) -> Weight:
    if not isinstance(arr, list):
        raise GitkitError("bad_input", "a weight must be a JSON list",
                          {"type": type(arr).__name__})
    return weight(arr)


def weight_to_json(w: Weight) -> list:
    return [fmt_rat(c) for c in w]


def _pairs(a: Weight, b: Weight):
    """Zip two weights of one rank; weights of different ranks are refused."""
    if len(a) != len(b):
        raise GitkitError("rank_mismatch", "weights have different lengths",
                          {"lengths": [len(a), len(b)]})
    return zip(a, b)


def wadd(a: Weight, b: Weight) -> Weight:
    return tuple(rat(x + y) for x, y in _pairs(a, b))


def wsub(a: Weight, b: Weight) -> Weight:
    return tuple(rat(x - y) for x, y in _pairs(a, b))


def wneg(a: Weight) -> Weight:
    return tuple(rat(-x) for x in a)


def wdot(a: Weight, b: Weight):
    return rat(sum(x * y for x, y in _pairs(a, b)))


def wnorm_sq(a: Weight):
    return wdot(a, a)


def is_integral(a: Weight) -> bool:
    return all(isinstance(x, int) or Fraction(x).denominator == 1 for x in a)


def primitive_integer(a: Weight) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector (same ray);
    a vector of ints is divided by its gcd with no Fraction made."""
    if not all(type(x) is int for x in a):
        fr = [Fraction(x) for x in a]
        den = lcm(*(f.denominator for f in fr))
        a = [int(f * den) for f in fr]
    g = gcd(*a)
    if not g:
        raise GitkitError("zero_vector", "primitive direction of the zero vector", {})
    return tuple(v // g for v in a)


@dataclass(frozen=True)
class WeylElement:
    """Permutation of coordinate slots; perm[i] is the image of slot i (0-based)."""

    perm: tuple[int, ...]

    @property
    def length(self) -> int:
        p = self.perm
        return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])

    @property
    def sign(self) -> int:
        return -1 if self.length % 2 else 1

    def apply(self, mu: Weight) -> Weight:
        # (w.mu) places mu_i at slot perm[i]
        out = [0] * len(self.perm)
        for i, pi in enumerate(self.perm):
            out[pi] = mu[i]
        return tuple(out)


ORBIT_POINTS_CAP = 10 ** 6


def weyl_orbit(lam: Weight, r: int) -> set[Weight]:
    """All coordinate permutations of lam, each made once: entries are inserted
    one at a time, each right of the equal entries already placed.  An orbit of
    more than ORBIT_POINTS_CAP points (r! / prod of multiplicity factorials) is
    refused (too_large) before any point is made."""
    lam, r = weight(lam), integer(r, "r")
    if len(lam) != r:
        raise GitkitError("rank_mismatch", "weight length does not match rank",
                          {"rank": r, "weight": weight_to_json(lam)})
    points = factorial(r) // prod(map(factorial, Counter(lam).values()))
    if points > ORBIT_POINTS_CAP:
        raise GitkitError("too_large", f"Weyl orbit capped at {ORBIT_POINTS_CAP} points",
                          {"points": points, "cap": ORBIT_POINTS_CAP})
    orbit = [()]
    for x in lam:
        orbit = [p[:i] + (x,) + p[i:] for p in orbit
                 for i in range(len(p) - p[::-1].index(x) if x in p else 0, len(p) + 1)]
    return set(orbit)


def rho(r: int) -> Weight:
    """The fixed shift vector (r-1, r-2, ..., 0)."""
    r = integer(r, "r")
    if r < 1:
        raise GitkitError("bad_rank", "rank must be at least 1", {"rank": r})
    return tuple(range(r - 1, -1, -1))


def is_dominant(lam: Weight) -> bool:
    return all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def dominantize(mu: Weight):
    """Sort mu weakly decreasing; returns (w, dominant) with w.apply(mu) dominant,
    or None when two entries coincide (singular)."""
    mu = weight(mu)
    r = len(mu)
    if len(set(mu)) != r:
        return None
    order = sorted(range(r), key=lambda i: mu[i], reverse=True)
    # slot order[j] of mu lands at sorted position j
    perm = [0] * r
    for j, i in enumerate(order):
        perm[i] = j
    w = WeylElement(tuple(perm))
    dom = w.apply(mu)
    if not is_dominant(dom):
        raise GitkitError("internal", "sorting did not give a dominant weight",
                          {"mu": weight_to_json(mu)})
    return w, dom
