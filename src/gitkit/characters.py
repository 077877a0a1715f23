"""Laurent polynomial characters for GL(r) torus representations.

Everything here is exact integer arithmetic on exponent dictionaries, and
every routine is Weyl's alternating sum over the permutations of lam + rho.
The character of an irreducible divides the signed numerator by
(1 - t^(-alpha)) one positive root at a time: one prefix sum down each line
m + Z*alpha, and a line whose sum does not return to 0 means the numerator
was not divisible, so we abort rather than return a rounded answer.  Tensor
products straighten lam + nu over the weights nu of one factor
(Brauer-Klimyk), invariant dimensions read the alternating sum off the
product character at the diagonal weight, and Borel-Weil-Bott straightens a
single weight.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd
from numbers import Rational
from types import MappingProxyType

from .lie import (
    GitkitError,
    Weight,
    WeylElement,
    dominantize,
    entries,
    integer,
    is_dominant,
    is_int,
    rat,
    rho,
    wadd,
    weight,
    wsub,
    weight_to_json,
)


def _exponent(w: tuple, message: str) -> tuple[int, ...]:
    """An exponent vector read by lie.weight, as ints: an entry that is a bool
    or not an integral rational (2.0 is one) is refused (not_integral)."""
    if not any(isinstance(x, bool) for x in w):
        key = weight(w)
        if all(type(x) is int for x in key):
            return key
    raise GitkitError("not_integral", message, {"exponent": [str(x) for x in w]})


def _monomial_at(w, pq) -> tuple[int, int]:
    """t^w at the point of coordinates p/q, given as integer pairs (p, q): an
    integer pair (n, d) with value n/d.  d is 0 exactly when a zero coordinate
    has a negative exponent (a pole), and n is 0 when one has a positive one."""
    n = d = 1
    for (p, q), e in zip(pq, w):
        if e > 0:
            n, d = n * p ** e, d * q ** e
        elif e < 0:
            n, d = n * q ** -e, d * p ** -e
    return n, d


def _point_strs(pq) -> list[str]:
    """A point of integer pairs (p, q) as the strings of its coordinates p/q."""
    return [str(Fraction(p, q)) for p, q in pq]


class LaurentPoly:
    """Integer Laurent polynomial in r torus variables, keyed by exponent tuple."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict | None = None):
        """Every entry is checked, zero coefficients too, before zeros are dropped."""
        self.rank = rank = integer(rank, "rank")
        if not isinstance(terms, dict | None):
            raise GitkitError("bad_input", "Laurent terms must be a dict from exponent "
                              "tuples to coefficients", {"type": type(terms).__name__})
        clean = {}
        for w, c in (terms or {}).items():
            if len(w := entries(w)) != rank:
                raise GitkitError("rank_mismatch", "exponent length does not match rank",
                                  {"rank": rank, "exponent": list(w)})
            key = _exponent(w, "Laurent exponents must be integers")
            if isinstance(c, bool) or type(c := rat(c)) is not int:
                raise GitkitError("not_integral", "Laurent coefficients must be integers",
                                  {"coefficient": str(c)})
            if c:
                clean[key] = c
        self.terms = clean

    @classmethod
    def _of(cls, rank: int, terms: dict) -> "LaurentPoly":
        """Over terms already checked (int exponent tuples of this rank, nonzero int
        coefficients), kept uncopied: fresh for this polynomial, or read-only."""
        poly = cls.__new__(cls)
        poly.rank, poly.terms = rank, terms
        return poly

    @staticmethod
    def zero(rank: int) -> "LaurentPoly":
        return LaurentPoly(rank, {})

    @staticmethod
    def monomial(w, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly(len(w), {tuple(w): coeff})

    @staticmethod
    def one(rank: int) -> "LaurentPoly":
        return LaurentPoly(rank, {(0,) * rank: 1})

    def coeff(self, w) -> int:
        return self.terms.get(tuple(w), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.rank == other.rank and self.terms == other.terms

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return LaurentPoly(self.rank, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + -other

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.rank, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = wadd(w1, w2)
                out[w] = out.get(w, 0) + c1 * c2
        return LaurentPoly(self.rank, out)

    def scale(self, c: int) -> "LaurentPoly":
        return LaurentPoly(self.rank, {w: c * v for w, v in self.terms.items()})

    def evaluate(self, point) -> Fraction:
        """Exact evaluation at a tuple of nonzero rationals (zero allowed only
        when no negative exponent touches that coordinate)."""
        return Fraction(*self._value_at([(x.numerator, x.denominator)
                                         for x in map(Fraction, point)]))

    def _value_at(self, pq) -> tuple[int, int]:
        """The value at the point of coordinates p/q, given as integer pairs
        (p, q), as an integer pair (num, den) over the lcm of the monomials'
        denominators.  A monomial is 0 when its first zero coordinate with a
        nonzero exponent has a positive one, and a pole when a negative one."""
        if len(pq) != self.rank:
            raise GitkitError("rank_mismatch", "evaluation point has wrong length",
                              {"rank": self.rank, "point": _point_strs(pq)})
        num, den = 0, 1
        for w, c in self.terms.items():
            n, d = _monomial_at(w, pq)
            if not d:
                if next(e for (p, _), e in zip(pq, w) if e and not p) < 0:
                    raise GitkitError("pole", "zero coordinate raised to a negative power",
                                      {"point": _point_strs(pq)})
                continue
            g = gcd(den, d)
            num, den = num * (d // g) + c * n * (den // g), den * (d // g)
        return num, den

    def total_coeff_sum(self) -> int:
        return sum(self.terms.values())

    def _check(self, other: "LaurentPoly"):
        if self.rank != other.rank:
            raise GitkitError("rank_mismatch", "mixed ranks in Laurent arithmetic",
                              {"left": self.rank, "right": other.rank})

    def to_json(self) -> list:
        return [{"w": list(w), "c": c} for w, c in sorted(self.terms.items())]

    @staticmethod
    def from_json(arr, rank: int | None = None) -> "LaurentPoly":
        if not isinstance(arr, list) or not all(
                isinstance(item, dict) and isinstance(item.get("w"), list)
                and all(map(is_int, item["w"])) and is_int(item.get("c")) for item in arr):
            raise GitkitError("bad_input", "a Laurent polynomial must be a list of terms, "
                              "each an object with an integer list w and an integer c", {})
        terms = {}
        for item in arr:
            w = tuple(item["w"])
            terms[w] = terms.get(w, 0) + item["c"]
        if rank is None:
            if not terms:
                raise GitkitError("bad_input", "rank required for an empty polynomial", {})
            rank = len(next(iter(terms)))
        return LaurentPoly(rank, terms)

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        bits = []
        for w, c in sorted(self.terms.items(), reverse=True):
            bits.append(f"{c}*t^{w}")
        return "LaurentPoly(" + " + ".join(bits) + ")"


def positive_roots(r: int) -> list[tuple[int, ...]]:
    """e_i - e_j for i < j, as integer exponent vectors."""
    out = []
    for i in range(r):
        for j in range(i + 1, r):
            v = [0] * r
            v[i], v[j] = 1, -1
            out.append(tuple(v))
    return out


def weyl_dim(lam: Weight) -> int:
    """Dimension by the product formula; exact."""
    lam = _integral(lam, "highest weight must have integer entries")
    r = len(lam)
    num = Fraction(1)
    for i in range(r):
        for j in range(i + 1, r):
            num *= Fraction(lam[i] - lam[j] + j - i, j - i)
    if num.denominator != 1:
        raise GitkitError("internal", "dimension formula gave a non-integer",
                          {"weight": weight_to_json(lam)})
    return int(num)


def _integral(lam, message: str) -> Weight:
    """lam as a tuple of ints (lie.is_int).  Another entry is refused: with
    not_integral and `message` when it is a rational (a bool shows as its
    int), by lie.rat when it is not."""
    if all(map(is_int, lam := entries(lam))):
        return weight(lam)
    shown = [x if isinstance(x, bool) else rat(x) for x in lam]
    raise GitkitError("not_integral", message, {"weight": weight_to_json(shown)})


def _check_dominant_integral(lam) -> Weight:
    lam = _integral(lam, "highest weight must have integer entries")
    if not is_dominant(lam):
        raise GitkitError("not_dominant", "weight entries must be weakly decreasing",
                          {"weight": weight_to_json(lam)})
    if len(lam) > 6:
        raise GitkitError("rank_too_large", "character expansion supported up to rank 6",
                          {"rank": len(lam)})
    return lam


def weyl_alternant(lam: Weight) -> list[tuple[Weight, int]]:
    """(w(lam + rho) - rho, sgn w) for every permutation w, in permutation order."""
    r = len(lam)
    shift = rho(r)
    target = wadd(lam, shift)
    out = []
    for perm in itertools.permutations(range(r)):
        v = tuple(target[perm[i]] for i in range(r))
        out.append((wsub(v, shift), WeylElement(perm).sign))
    return out


def _divide_one_factor(terms: dict, beta: tuple[int, ...]) -> dict:
    # exact division by (1 - t^beta), beta = e_j - e_i with i < j: the quotient
    # obeys q[m] = f[m] + q[m - beta], so run one prefix sum down each line
    # m + Z*beta from its lex-top; the division is exact iff every sum ends at 0
    i, j = beta.index(-1), beta.index(1)

    def at(m, k):   # the point of m's line with m_j = k
        return m[:i] + (m[i] + m[j] - k,) + m[i + 1:j] + (k,) + m[j + 1:]

    lines: dict = {}
    for m in sorted(terms, reverse=True):
        lines.setdefault(at(m, 0), []).append(m)
    quotient: dict = {}
    for line in lines.values():
        k = total = 0
        for m in line:
            if total:
                for kk in range(k, m[j]):
                    quotient[at(m, kk)] = total
            k, total = m[j], total + terms[m]
        if total:
            raise GitkitError("non_exact_division",
                              "alternating-sum numerator is not divisible by the root factor",
                              {"beta": list(beta)})
    return dict(sorted(quotient.items(), reverse=True))


def weyl_character(lam: Weight) -> LaurentPoly:
    """Character of the irreducible with highest weight lam (weakly decreasing ints).

    Signed numerator over all coordinate permutations of lam + rho, then exact
    division by each factor (1 - t^(e_j - e_i)), i < j.  All coefficients of the
    result are verified nonnegative and the dimension matches the product formula.
    """
    lam = _check_dominant_integral(lam)
    return LaurentPoly._of(len(lam), _weyl_terms(lam))   # a fresh shell over the shared terms


@functools.lru_cache(maxsize=1024)
def _weyl_terms(lam: Weight) -> MappingProxyType:
    """The read-only terms of weyl_character(lam), computed and verified."""
    terms = dict(weyl_alternant(lam))   # lam + rho is strictly decreasing: no collisions
    for alpha in positive_roots(len(lam)):
        terms = _divide_one_factor(terms, tuple(-a for a in alpha))
    if any(c < 0 for c in terms.values()):
        raise GitkitError("internal", "negative multiplicity after division",
                          {"weight": weight_to_json(lam)})
    dim = weyl_dim(lam)
    if sum(terms.values()) != dim:
        raise GitkitError("internal", "character dimension mismatch",
                          {"weight": weight_to_json(lam), "expected": dim,
                           "got": sum(terms.values())})
    return MappingProxyType(terms)


def tensor_decompose(lam: Weight, mu: Weight) -> dict[Weight, int]:
    """Multiplicities of the irreducible pieces of V_lam (x) V_mu.

    Brauer-Klimyk: each weight nu of V_mu contributes its multiplicity, with
    the Bott sign, to the piece that lam + nu straightens to."""
    lam, mu = _check_dominant_integral(lam), _check_dominant_integral(mu)
    if len(lam) != len(mu):
        raise GitkitError("rank_mismatch", "tensor factors must share a rank",
                          {"left": len(lam), "right": len(mu)})
    acc: dict[Weight, int] = {}
    for nu, m in weyl_character(mu).terms.items():
        hit = bwb_cohomology(wadd(lam, nu))
        if hit is not None:
            deg, dom = hit
            acc[dom] = acc.get(dom, 0) + (-m if deg % 2 else m)
    out = {nu: m for nu, m in sorted(acc.items(), reverse=True) if m}
    if sum(weyl_dim(nu) * m for nu, m in out.items()) != weyl_dim(lam) * weyl_dim(mu):
        raise GitkitError("internal", "tensor pieces do not add up to the product dimension",
                          {"lambda": weight_to_json(lam), "mu": weight_to_json(mu)})
    return out


def invariant_dim(lams: list, group: str = "SL") -> int:
    """Dimension of the invariant subspace of a tensor product of irreducibles.

    'GL' counts the trivial character exactly; 'SL' also counts determinant
    twists, i.e. all weights with equal coordinates.  The multiplicity of
    V(c,...,c) in the product character chi is the alternating sum
    sum_w sgn(w) chi[(c,...,c) + rho - w rho].
    """
    if group not in ("SL", "GL"):
        raise GitkitError("bad_group", "group must be 'SL' or 'GL'", {"group": group})
    lams = [_check_dominant_integral(l) for l in entries(lams)]
    if not lams:
        raise GitkitError("bad_input", "need at least one factor", {})
    r = len(lams[0])
    if any(len(l) != r for l in lams):
        raise GitkitError("rank_mismatch", "factors must share a rank", {})
    prod = LaurentPoly.one(r)
    for l in lams:
        prod = prod * weyl_character(l)
    degree = sum(sum(l) for l in lams)   # every weight of the product has this sum
    if degree % r or (group == "GL" and degree):
        return 0
    diag = (degree // r,) * r
    return sum(s * prod.coeff(wsub(diag, shift)) for shift, s in weyl_alternant((0,) * r))


def su2_invariant_dim(labels, scale: int = 1) -> int:
    """Invariant dimension for a tensor product of su(2) irreducibles.

    `labels` are the doubled spins (integers, so spin 3/2 is label 3); `scale`
    multiplies every label first.  Realized through SL(2) weights (n, 0).
    """
    if isinstance(scale, bool) or not isinstance(scale, Rational):
        raise GitkitError("bad_input", "scale must be an integer or a fraction",
                          {"scale": repr(scale)})
    scaled = []
    for l in entries(labels):
        try:
            v = rat(l) * scale
        except GitkitError:
            raise GitkitError("bad_input", "labels must be rational numbers",
                              {"label": repr(l)}) from None
        if v.denominator != 1:
            raise GitkitError("not_integral", "scaled label is not an integer",
                              {"label": str(l), "scale": scale})
        scaled.append(v.numerator)
    ells = tuple(sorted(scaled))
    if any(l < 0 for l in ells):
        raise GitkitError("bad_input", "labels must be nonnegative", {"labels": list(ells)})
    return _su2_invariant_dim(ells)


@functools.lru_cache(maxsize=1024)
def _su2_invariant_dim(ells: tuple) -> int:
    return invariant_dim([(l, 0) for l in ells], group="SL")


def bwb_cohomology(lam: Weight):
    """Sheaf cohomology degree for the line bundle of an arbitrary integral weight.

    Returns None when lam + rho has a repeated entry (all cohomology vanishes),
    otherwise (degree, dominant weight): degree is the number of inversions
    needed to sort lam + rho and the weight is the sorted result minus rho.
    """
    lam = _integral(lam, "integral weight required")
    r = len(lam)
    shift = rho(r)
    mu = wadd(lam, shift)
    res = dominantize(mu)
    if res is None:
        return None
    w, dom = res
    return w.length, wsub(dom, shift)


def decomposition_to_json(decomp: dict) -> list:
    return [{"weight": weight_to_json(w), "mult": m} for w, m in sorted(decomp.items(), reverse=True)]
