"""Eigenvalue inequalities for sums of Hermitian matrices.

The inequality system for spectra of A, B, and C = A + B is generated from
puzzle counts: for index sets (I, J, K) of equal size s with a positive
structure constant, sum_{I} a_i + sum_{J} b_j <= sum_{K} c_k, together with
the exact trace identity.  Spectra are weakly decreasing; checks are exact
over rationals.

The Monte Carlo validator draws Gaussian Hermitian matrices and computes
spectra with a hand-rolled cyclic Jacobi iteration on the real symmetric
doubling [[X, -Y], [Y, X]], keeping the check independent of library
eigensolvers.  The iteration has two drivers that do the same IEEE
operations in the same order.  One matrix (`jacobi_eigenvalues`) goes
through a scalar rotation loop on Python floats.  A stack of matrices
(`_jacobi_batch`, used by the validator) goes through a lockstep loop: each
pivot's rotation is one set of elementwise numpy operations over the whole
stack.  Both give each matrix the bits of a plain per-matrix rotation loop
on a numpy array.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from collections.abc import Hashable
from dataclasses import dataclass

import numpy as np

from .lie import GitkitError, entries, fmt_rat, integer, is_int, rat, weight
from .puzzles import count_puzzles_all_k


def spectrum(values) -> tuple:
    """A weakly decreasing tuple of exact rationals."""
    vals = weight(values)
    if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
        raise GitkitError("not_sorted", "spectrum entries must be weakly decreasing",
                          {"values": [fmt_rat(v) for v in vals]})
    return vals


@dataclass(frozen=True)
class HornSystem:
    r: int
    mode: str                      # 'all-positive' | 'irredundant'
    triples: tuple                 # ((I, J, K, count), ...) in (s, I, J, K) order

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "mode": self.mode,
            "trace_equality": True,
            "triples": [{"I": list(i), "J": list(j), "K": list(k), "count": n}
                        for i, j, k, n in self.triples],
        }


def generate_horn_system(r: int, mode: str = "all-positive") -> HornSystem:
    """All inequality triples for r x r spectra, from scratch via puzzle counts.

    Subset size s runs over 1..r-1 (s = 0 and s = r carry no information
    beyond the trace identity).  'all-positive' keeps every triple with a
    positive count; 'irredundant' keeps those with count exactly 1.
    """
    if not is_int(r) or r < 2 or r > 6:
        raise GitkitError("bad_rank", "inequality systems supported for 2 <= r <= 6", {"r": r})
    if mode not in ("all-positive", "irredundant"):
        raise GitkitError("bad_mode", "mode must be 'all-positive' or 'irredundant'",
                          {"mode": mode})
    return _horn_system(rat(r), mode)


@functools.lru_cache(maxsize=16)
def _horn_system(r: int, mode: str) -> HornSystem:
    triples = []
    for s in range(1, r):
        subsets = list(itertools.combinations(range(1, r + 1), s))
        for i_set in subsets:
            for j_set in subsets:
                counts = count_puzzles_all_k(r, i_set, j_set)
                for k_set in subsets:
                    n = counts.get(k_set, 0)
                    if n >= 1 and (mode == "all-positive" or n == 1):
                        triples.append((i_set, j_set, k_set, n))
    triples.sort(key=lambda t: (len(t[0]), t[0], t[1], t[2]))
    return HornSystem(r, mode, tuple(triples))


@dataclass(frozen=True)
class CheckResult:
    feasible: bool
    violated: tuple | None         # ('trace',) or (I, J, K)


def check_triple(a, b, c) -> CheckResult:
    """Exact membership test: can spectra a and b of Hermitian matrices add up
    to a matrix with spectrum c?  Reports the first violated constraint.
    Spectra of rank 1 to 6 are answered; any other rank is refused."""
    a, b, c = spectrum(a), spectrum(b), spectrum(c)
    r = len(a)
    if len(b) != r or len(c) != r:
        raise GitkitError("rank_mismatch", "spectra must share a length",
                          {"lengths": [len(a), len(b), len(c)]})
    if not 1 <= r <= 6:
        raise GitkitError("bad_rank", "spectra supported for 1 <= r <= 6", {"r": r})
    if sum(a) + sum(b) != sum(c):
        return CheckResult(False, ("trace",))
    if r == 1:      # the trace identity is the whole system
        return CheckResult(True, None)
    for i_set, j_set, k_set, _n in generate_horn_system(r, "all-positive").triples:
        lhs = sum(a[i - 1] for i in i_set) + sum(b[j - 1] for j in j_set)
        rhs = sum(c[k - 1] for k in k_set)
        if lhs > rhs:
            return CheckResult(False, (i_set, j_set, k_set))
    return CheckResult(True, None)


# both Jacobi drivers stop once a doubling's off-diagonal norm is at most
# JACOBI_TOL times its scale, and fail after JACOBI_SWEEPS sweeps
JACOBI_TOL, JACOBI_SWEEPS = 1e-12, 100


def jacobi_eigenvalues(h) -> list[float]:
    """Spectrum of a Hermitian matrix by cyclic Jacobi, descending.

    The complex matrix X + iY is embedded as the real symmetric doubling
    [[X, -Y], [Y, X]] whose spectrum repeats each eigenvalue twice.  One
    matrix goes through a scalar rotation loop on Python floats; a stack goes
    through the lockstep numpy loop `_jacobi_batch`.  Both follow the
    per-matrix rotation loop operation for operation (pivot order, skip test,
    rotation formulas, columns before rows) and stop at the same sweep, so a
    matrix gets the same bits on either path.
    """
    try:
        a = np.asarray(h)
        numeric = a.dtype.kind not in "SUV"        # numpy would parse strings
        a = a.astype(complex)
    except (TypeError, ValueError, OverflowError):
        numeric = False
    if not numeric:
        raise GitkitError("bad_matrix", "matrix entries must be numbers in rows of equal length",
                          {})
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GitkitError("bad_matrix", "square matrix required", {"shape": list(a.shape)})
    if not np.isfinite(a).all():
        raise GitkitError("bad_matrix", "matrix entries must be finite", {})
    if not np.allclose(a, a.conj().T, atol=1e-10):
        raise GitkitError("not_hermitian", "matrix is not Hermitian", {})
    doubled = _doubling(a[None])
    limit = JACOBI_TOL * _scales(doubled)[0]
    s = doubled[0].tolist()
    n = len(s)
    for _sweep in range(JACOBI_SWEEPS):
        if _off_norms(np.array(s).reshape(1, n, n))[0] <= limit:
            return sorted([s[i][i] for i in range(n)], reverse=True)[0::2]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = s[p][q]
                if not abs(apq) > 1e-30:
                    continue
                tau = (s[q][q] - s[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                cth = 1.0 / math.sqrt(1.0 + t * t)
                sth = t * cth
                # columns p and q, then rows p and q from the updated values
                for row in s:
                    x = row[p]
                    y = row[q]
                    row[p] = cth * x - sth * y
                    row[q] = sth * x + cth * y
                rp = s[p]
                rq = s[q]
                for j in range(n):
                    x = rp[j]
                    y = rq[j]
                    rp[j] = cth * x - sth * y
                    rq[j] = sth * x + cth * y
    raise GitkitError("jacobi_no_convergence",
                      f"Jacobi iteration did not converge in {JACOBI_SWEEPS} sweeps", {"n": n})


def _check_tol(tol) -> None:
    if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
            or not math.isfinite(tol) or tol < 0):
        raise GitkitError("bad_input", "tol must be a finite non-negative number",
                          {"tol": repr(tol)})


def _doubling(hs):
    """The real symmetric doublings [[X, -Y], [Y, X]] of a stack of matrices X + iY."""
    x, y = hs.real, hs.imag
    return np.block([[x, -y], [y, x]])


def _scales(s_mat):
    """Each doubling's sweep scale: its Frobenius norm, at least 1."""
    with np.errstate(over="ignore"):
        scale = np.array([max(1.0, float(np.linalg.norm(m))) for m in s_mat])
    if not np.isfinite(scale).all():
        # the squares of the entries overflow, so the sweep test would pass at once
        raise GitkitError("bad_matrix", "matrix norm overflows a float", {})
    return scale


def _off_norms(s_mat):
    """Each doubling's off-diagonal Frobenius norm.

    Summed directly over off-diagonal entries; the difference of the full and
    diagonal Frobenius masses cancels catastrophically here.
    """
    n = s_mat.shape[-1]
    off_sq = np.where(~np.eye(n, dtype=bool), s_mat, 0.0) ** 2
    return np.sqrt(np.sum(off_sq.reshape(len(s_mat), n * n), axis=1))


def _jacobi_batch(hs) -> list:
    """Spectra, each descending, of a stack (B, r, r) of Hermitian matrices.

    Cyclic Jacobi runs on the stack of real symmetric doublings in lockstep:
    for each pivot (p, q), one set of elementwise numpy operations rotates
    every matrix still in the batch.  Each matrix keeps its own path, so its
    spectrum has the same bits as when it runs alone: its own scale and
    off-diagonal norm decide when it leaves the batch, a lane whose pivot is
    negligible keeps its values by selection (an identity rotation could
    turn -0.0 into +0.0), and no operation sums across entries in a new order.
    It stops by the same rule as jacobi_eigenvalues.
    """
    s_mat = _doubling(hs)
    n = s_mat.shape[-1]
    scale = _scales(s_mat)
    live = np.arange(len(s_mat))
    out = [None] * len(s_mat)
    for _sweep in range(JACOBI_SWEEPS):
        done = _off_norms(s_mat) <= JACOBI_TOL * scale
        for k in np.flatnonzero(done):
            out[live[k]] = sorted(np.diag(s_mat[k]).tolist(), reverse=True)[0::2]
        if done.any():
            keep = ~done
            s_mat, scale, live = s_mat[keep], scale[keep], live[keep]
        if not len(live):
            return out
        lanes = len(live)
        # masked lanes divide by a zero pivot; their results are discarded
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = s_mat[:, p, q, None]
                    turn = np.abs(apq) > 1e-30
                    turning = np.count_nonzero(turn)
                    if not turning:
                        continue
                    tau = (s_mat[:, q, q, None] - s_mat[:, p, p, None]) / (2.0 * apq)
                    t = np.copysign(1.0, tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
                    cth = 1.0 / np.sqrt(1.0 + t * t)
                    sth = t * cth
                    cp, cq = s_mat[:, :, p], s_mat[:, :, q]
                    new_p, new_q = cth * cp - sth * cq, sth * cp + cth * cq
                    if turning < lanes:
                        new_p, new_q = np.where(turn, new_p, cp), np.where(turn, new_q, cq)
                    s_mat[:, :, p], s_mat[:, :, q] = new_p, new_q
                    rp, rq = s_mat[:, p, :], s_mat[:, q, :]
                    new_p, new_q = cth * rp - sth * rq, sth * rp + cth * rq
                    if turning < lanes:
                        new_p, new_q = np.where(turn, new_p, rp), np.where(turn, new_q, rq)
                    s_mat[:, p, :], s_mat[:, q, :] = new_p, new_q
    if len(live):
        raise GitkitError("jacobi_no_convergence",
                          f"Jacobi iteration did not converge in {JACOBI_SWEEPS} sweeps", {"n": n})
    return out


@dataclass(frozen=True)
class SampleReport:
    r: int
    trials: int
    violations: int
    max_slack_error: float
    max_trace_error: float


def sample_hermitian_validate(r: int, trials: int = 1000, seed: int = 0,
                              tol: float = 1e-8) -> SampleReport:
    """Draw Gaussian Hermitian pairs, diagonalize A, B, A + B with the Jacobi
    routine in one lockstep batch, and check every inequality of the system
    within tolerance."""
    r, trials, seed = integer(r, "r"), integer(trials, "trials"), integer(seed, "seed")
    for name, value in (("trials", trials), ("seed", seed)):
        if value < 0:
            raise GitkitError("bad_input", f"{name} must be non-negative", {name: value})
    _check_tol(tol)
    system = generate_horn_system(r, "all-positive")
    rng = np.random.default_rng(seed)
    m = len(system.triples)
    masks = np.zeros((3, m, r))       # the I, J and K of each triple as 0/1 rows
    for row, triple in enumerate(system.triples):
        for mask, index_set in zip(masks, triple[:3]):
            mask[row, [i - 1 for i in index_set]] = 1.0
    mask_i, mask_j, mask_k = masks

    # one draw in the per-trial order: real and imaginary parts of ma, then of mb
    g = rng.standard_normal((trials, 4, r, r))
    ma = g[:, 0] + 1j * g[:, 1]
    mb = g[:, 2] + 1j * g[:, 3]
    ha = (ma + ma.conj().transpose(0, 2, 1)) / 2
    hb = (mb + mb.conj().transpose(0, 2, 1)) / 2
    spectra = _jacobi_batch(np.concatenate((ha, hb, ha + hb)))

    violations = 0
    max_slack = 0.0
    max_trace = 0.0
    for trial in range(trials):
        a, b, c = (np.array(spectra[k * trials + trial]) for k in range(3))
        trace_err = abs(a.sum() + b.sum() - c.sum())
        max_trace = max(max_trace, trace_err)
        excess = mask_i @ a + mask_j @ b - mask_k @ c
        worst = float(excess.max()) if m else 0.0
        max_slack = max(max_slack, worst)
        if worst > tol or trace_err > tol:
            violations += 1
    return SampleReport(r, trials, violations, max(0.0, max_slack), max_trace)


def polygon_nonempty(lengths) -> bool:
    """Does a closed polygon with these (positive) side lengths exist?  True
    exactly when no side exceeds the sum of the others; degenerate flat
    polygons count as polygons."""
    vals = weight(lengths)
    if len(vals) < 2:
        raise GitkitError("bad_input", "need at least two side lengths", {})
    if any(v <= 0 for v in vals):
        raise GitkitError("bad_input", "side lengths must be positive",
                          {"lengths": [fmt_rat(v) for v in vals]})
    total = sum(vals)
    return all(2 * v <= total for v in vals)


def sl2_config_semistable(masses, expected_total=None):
    """Weighted point configuration on the line: semistable when no single
    location carries more than half the total mass.

    `masses` is a list of (label, mass) pairs or bare masses; equal labels
    pool their mass.  Returns (semistable, offending label or None).
    """
    pooled: dict = {}
    for item in entries(masses):
        if isinstance(item, (tuple, list)) and len(item) == 2:
            label, mass = item
        else:
            label, mass = len(pooled), item
        mass = rat(mass)
        if mass <= 0:
            raise GitkitError("bad_input", "masses must be positive", {"label": str(label)})
        if not isinstance(label, Hashable):
            raise GitkitError("bad_input", "a label must be hashable", {"label": repr(label)})
        pooled[label] = pooled.get(label, 0) + mass
    if not pooled:
        raise GitkitError("bad_input", "empty configuration", {})
    total = sum(pooled.values())
    if expected_total is not None and (expected_total := rat(expected_total)) != total:
        raise GitkitError("mass_mismatch", "masses do not sum to the stated total",
                          {"total": fmt_rat(total), "expected": fmt_rat(expected_total)})
    for label, mass in pooled.items():
        if 2 * mass > total:
            return False, label
    return True, None
