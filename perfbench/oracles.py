"""Answers the benchmark computes without gitkit, to check gitkit against.

Nothing here imports gitkit.  Every check raises `CheckFailed`; none uses
`assert`, so the checks hold under `python -O` as well.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class CheckFailed(Exception):
    """A gitkit answer disagreed with the benchmark's own computation."""


def require(ok: bool, what: str, *context) -> None:
    if not ok:
        raise CheckFailed(what + (": " + repr(context) if context else ""))


# ------------------------------------------------------------ exact vectors

def dot(a, b):
    return sum(Fraction(x) * Fraction(y) for x, y in zip(a, b, strict=True))


def add(a, b):
    return tuple(Fraction(x) + Fraction(y) for x, y in zip(a, b, strict=True))


def scale(c, a):
    return tuple(Fraction(c) * Fraction(x) for x in a)


def det(rows) -> Fraction:
    """Determinant by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return out


def rank_of(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# ------------------------------------------------------------ Lie theory

def weyl_dim(lam) -> int:
    """Weyl's product formula for GL(r): prod_{i<j} (l_i - l_j + j - i)/(j - i)."""
    r = len(lam)
    num = Fraction(1)
    for i in range(r):
        for j in range(i + 1, r):
            num *= Fraction(lam[i] - lam[j] + j - i, j - i)
    require(num.denominator == 1, "product formula is not an integer", lam)
    return int(num)


def rho(r: int) -> tuple:
    return tuple(range(r - 1, -1, -1))


def permutations_of(lam) -> set:
    return set(itertools.permutations(lam))


def majorized(mu, lam) -> bool:
    """Rado: mu lies in the convex hull of the permutations of lam exactly
    when the sums agree and every partial sum of sorted mu is at most that
    of sorted lam."""
    if sum(mu) != sum(lam):
        return False
    ms = sorted((Fraction(x) for x in mu), reverse=True)
    ls = sorted((Fraction(x) for x in lam), reverse=True)
    pm = pl = Fraction(0)
    for a, b in zip(ms, ls):
        pm += a
        pl += b
        if pm > pl:
            return False
    return True


def pieri_one_box(r: int, i: int, j: int, k: int) -> int:
    """Puzzle count for one-element index sets {i}, {j}, {k} of 1..r.

    These encode the one-row partitions (r - i), (r - j), (r - k) of the
    1 x (r-1) box (projective space), where sigma_a sigma_b = sigma_{a+b}
    while a + b <= r - 1 and vanishes beyond."""
    a, b, c = r - i, r - j, r - k
    return 1 if c == a + b and a + b <= r - 1 else 0


def partitions_in_box(rows: int, cols: int, size: int | None = None) -> list:
    """Weakly decreasing tuples of length `rows` with parts in 0..cols."""
    out = list(itertools.combinations_with_replacement(range(cols, -1, -1), rows))
    if size is not None:
        out = [p for p in out if sum(p) == size]
    return out


# ------------------------------------------------------------ stability

def nearest_point_certificate(weights, p) -> None:
    """p = -lam_star is the hull point nearest the origin: <w, p> >= |p|^2
    for every weight, with equality on at least one."""
    ns = dot(p, p)
    vals = [dot(w, p) for w in weights]
    require(all(v >= ns for v in vals), "a weight lies on the origin's side of the destabilizer",
            p, weights)
    require(any(v == ns for v in vals), "no weight on the supporting hyperplane", p, weights)


# ------------------------------------------------------------ lattice polytopes

class LatticePolytope:
    """A smooth lattice polytope the benchmark builds: a standard shape given
    by its own inequalities <a, y> >= b, moved by x = U y + t with U an
    integer matrix of determinant +-1."""

    def __init__(self, ineqs, verts, u, uinv, t):
        self.ineqs = ineqs
        self.u, self.uinv, self.t = u, uinv, t
        self.vertices = [self.forward(v) for v in verts]

    @property
    def rank(self) -> int:
        return len(self.t)

    def forward(self, y):
        return tuple(sum(self.u[i][j] * y[j] for j in range(len(y))) + self.t[i]
                     for i in range(len(y)))

    def contains(self, x) -> bool:
        d = [Fraction(x[i]) - self.t[i] for i in range(len(x))]
        y = [sum(self.uinv[i][j] * d[j] for j in range(len(d))) for i in range(len(d))]
        return all(dot(a, y) >= b for a, b in self.ineqs)

    def lattice_points(self) -> list:
        lo = [min(v[i] for v in self.vertices) for i in range(self.rank)]
        hi = [max(v[i] for v in self.vertices) for i in range(self.rank)]
        box = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        return sorted(x for x in box if self.contains(x))


def monomial_sum(points, z) -> Fraction:
    total = Fraction(0)
    for m in points:
        term = Fraction(1)
        for zi, e in zip(z, m):
            term *= Fraction(zi) ** e
        total += term
    return total
