"""Triangular-grid puzzles computing Schubert structure constants.

The size-r triangle is split into rows i = 1..r; row i holds up-triangles
U(i,1..i) with edges (NW, NE, S) and down-triangles D(i,1..i-1) with edges
(N, SW, SE).  Gluing: U(i,j).NE = D(i,j).SW, D(i,j).SE = U(i,j+1).NW, and
U(i,j).S = D(i+1,j).N.  Edge labels are 0, 1, or an internal 2 that never
shows on the boundary; the legal triangles are listed below and a rhombus is
just a matched pair of halves sharing a 2-edge.

Boundary conventions: the NW side read bottom-to-top carries the indicator of
I (position k sits on row r+1-k), the NE side read top-to-bottom carries J
(position k on row k), the south side left-to-right carries K.

Counting runs row by row: the only state a row hands to the next one is its
vector of S-edge labels, so the search is a DP over those vectors.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .lie import GitkitError, entries, integer, is_int

UP_PIECES = {(0, 0, 0), (1, 1, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)}   # (NW, NE, S)
DOWN_PIECES = {(0, 0, 0), (1, 1, 1), (2, 0, 1), (1, 2, 0), (0, 1, 2)}  # (N, SW, SE)

_UP_BY_NW = {
    0: ((0, 0, 0), (0, 2, 1)),
    1: ((1, 1, 1), (1, 0, 2)),
    2: ((2, 1, 0),),
}
_DOWN_SE = {(n, sw): se for n, sw, se in DOWN_PIECES}


def _validate_subset(r: int, s, name: str) -> tuple[int, ...]:
    s = entries(s)
    t = tuple(sorted({integer(x, name) for x in s}))
    if len(t) != len(s):
        raise GitkitError("bad_subset", f"{name} has repeated elements", {name: list(s)})
    if any(x < 1 or x > r for x in t):
        raise GitkitError("bad_subset", f"{name} must lie in 1..{r}", {name: list(t)})
    return t


def _checked(r, *sets) -> tuple[int, list]:
    """The size r and the boundary subsets I, J (and K) of a size-r puzzle, validated."""
    r = integer(r, "r")
    if r < 1 or r > 8:
        raise GitkitError("bad_rank", "puzzle size must be between 1 and 8", {"r": r})
    return r, [_validate_subset(r, t, name) for t, name in zip(sets, "IJK")]


def _boundary_labels(r: int, i_set, j_set):
    nw = [1 if (r + 1 - i) in i_set else 0 for i in range(1, r + 1)]   # label for row i
    ne = [1 if i in j_set else 0 for i in range(1, r + 1)]
    return nw, ne


def _row_fillings(i: int, nw_label: int, ne_target: int, s_prev: tuple):
    """Yield (s_vector, ups) for every legal completion of row i.

    `ups` is the tuple of chosen up-pieces, from which the down-pieces are
    reconstructed; s_prev supplies the N edges of this row's down-triangles.
    """
    stack = [(1, nw_label, (), ())]
    while stack:
        j, cur_nw, svec, ups = stack.pop()
        for piece in _UP_BY_NW.get(cur_nw, ()):
            _, ne, s = piece
            if j == i:
                if ne == ne_target:
                    yield svec + (s,), ups + (piece,)
                continue
            se = _DOWN_SE.get((s_prev[j - 1], ne))
            if se is None:
                continue
            stack.append((j + 1, se, svec + (s,), ups + (piece,)))


def _final_states(r: int, i_set, j_set) -> dict:
    """Number of fillings for each S-edge vector of the bottom row."""
    nw, ne = _boundary_labels(r, i_set, j_set)
    states = {(): 1}
    for i in range(1, r + 1):
        nxt: dict = {}
        for s_prev, cnt in states.items():
            for svec, _ in _row_fillings(i, nw[i - 1], ne[i - 1], s_prev):
                nxt[svec] = nxt.get(svec, 0) + cnt
        states = nxt
    return states


def count_puzzles(r: int, i_set, j_set, k_set) -> int:
    """Number of legal fillings with the given boundary indicator sets."""
    r, (i_set, j_set, k_set) = _checked(r, i_set, j_set, k_set)
    target = tuple(1 if k in k_set else 0 for k in range(1, r + 1))
    return _final_states(r, i_set, j_set).get(target, 0)


def count_puzzles_all_k(r: int, i_set, j_set) -> dict[tuple[int, ...], int]:
    """One DP pass with a free south boundary: counts for every K at once."""
    r, (i_set, j_set) = _checked(r, i_set, j_set)
    out = {}
    for svec, cnt in _final_states(r, i_set, j_set).items():
        if any(x == 2 for x in svec):
            continue  # a 2 may not reach the boundary
        k = tuple(pos for pos, x in enumerate(svec, start=1) if x == 1)
        out[k] = out.get(k, 0) + cnt
    return out


def enumerate_puzzles(r: int, i_set, j_set, k_set, limit: int | None = None) -> list[dict]:
    """Explicit fillings as edge-label dictionaries (keys 'U:i:j:NW' etc.), at
    most `limit` of them (a non-negative integer) when it is given."""
    r, (i_set, j_set, k_set) = _checked(r, i_set, j_set, k_set)
    if limit is not None and (limit := integer(limit, "limit")) < 0:
        raise GitkitError("bad_input", "limit must be non-negative", {"limit": limit})
    nw, ne = _boundary_labels(r, i_set, j_set)
    target = tuple(1 if k in k_set else 0 for k in range(1, r + 1))

    results = []

    def rec(i: int, s_prev: tuple, rows: tuple):
        if limit is not None and len(results) >= limit:
            return
        if i > r:
            if s_prev == target:
                results.append(_edges_from_rows(r, rows))
            return
        for svec, ups in _row_fillings(i, nw[i - 1], ne[i - 1], s_prev):
            rec(i + 1, svec, rows + (ups,))

    rec(1, (), ())
    return results


def _edges_from_rows(r: int, rows) -> dict:
    edges = {}
    for i in range(1, r + 1):
        ups = rows[i - 1]
        for j in range(1, i + 1):
            nw_l, ne_l, s_l = ups[j - 1]
            edges[f"U:{i}:{j}:NW"] = nw_l
            edges[f"U:{i}:{j}:NE"] = ne_l
            edges[f"U:{i}:{j}:S"] = s_l
        for j in range(1, i):
            n_l = rows[i - 2][j - 1][2]     # the S edge of the up-piece above
            sw_l = ups[j - 1][1]
            se_l = ups[j][0]
            edges[f"D:{i}:{j}:N"] = n_l
            edges[f"D:{i}:{j}:SW"] = sw_l
            edges[f"D:{i}:{j}:SE"] = se_l
    return edges


def check_filling(r: int, i_set, j_set, k_set, edges: dict):
    """Validate a filling against the piece list, the gluing, and the boundary.

    Returns (ok, reason).  This walks the provided labels directly and shares
    no state with the search.
    """
    r, (i_set, j_set, k_set) = _checked(r, i_set, j_set, k_set)
    if not (isinstance(edges, dict) and all(map(is_int, edges.values()))):
        raise GitkitError("bad_input", "edges must be a dict of integer edge labels", {})

    class _Missing(Exception):
        pass

    def get(key):
        if key not in edges:
            raise _Missing(key)
        return edges[key]

    try:
        return _check_edges(r, i_set, j_set, k_set, get)
    except _Missing as e:
        return False, f"missing edge {e.args[0]}"


def _check_edges(r, i_set, j_set, k_set, get):
    for i in range(1, r + 1):
        for j in range(1, i + 1):
            tri = (get(f"U:{i}:{j}:NW"), get(f"U:{i}:{j}:NE"), get(f"U:{i}:{j}:S"))
            if tri not in UP_PIECES:
                return False, f"illegal up piece {tri} at ({i},{j})"
        for j in range(1, i):
            tri = (get(f"D:{i}:{j}:N"), get(f"D:{i}:{j}:SW"), get(f"D:{i}:{j}:SE"))
            if tri not in DOWN_PIECES:
                return False, f"illegal down piece {tri} at ({i},{j})"
    for i in range(1, r + 1):
        for j in range(1, i):
            if get(f"U:{i}:{j}:NE") != get(f"D:{i}:{j}:SW"):
                return False, f"NE/SW mismatch at ({i},{j})"
            if get(f"D:{i}:{j}:SE") != get(f"U:{i}:{j + 1}:NW"):
                return False, f"SE/NW mismatch at ({i},{j})"
    for i in range(1, r):
        for j in range(1, i + 1):
            if get(f"U:{i}:{j}:S") != get(f"D:{i + 1}:{j}:N"):
                return False, f"S/N mismatch between rows {i} and {i + 1} at column {j}"
    for k in range(1, r + 1):
        if get(f"U:{r + 1 - k}:1:NW") != (1 if k in i_set else 0):
            return False, f"NW boundary mismatch at position {k}"
        if get(f"U:{k}:{k}:NE") != (1 if k in j_set else 0):
            return False, f"NE boundary mismatch at position {k}"
        if get(f"U:{r}:{k}:S") != (1 if k in k_set else 0):
            return False, f"S boundary mismatch at position {k}"
    return True, ""


def partition_to_subset(r: int, s: int, lam) -> tuple[int, ...]:
    """Cardinality-s subset of 1..r encoding a partition in the s x (r-s) box."""
    lam = tuple(integer(x, "partition") for x in entries(lam))
    if len(lam) > s or any(lam[a] < lam[a + 1] for a in range(len(lam) - 1)):
        raise GitkitError("bad_partition", "partition must be weakly decreasing of length <= s",
                          {"partition": list(lam), "s": s})
    lam = lam + (0,) * (s - len(lam))
    if any(x < 0 or x > r - s for x in lam):
        raise GitkitError("bad_partition", f"parts must fit the {s}x{r - s} box",
                          {"partition": list(lam)})
    return tuple((r - s) + k - lam[k - 1] for k in range(1, s + 1))


def subset_to_partition(r: int, subset) -> tuple[int, ...]:
    sub = tuple(sorted(subset))
    s = len(sub)
    return tuple((r - s) + k - sub[k - 1] for k in range(1, s + 1))


def lr_coefficient(r: int, s: int, lam, mu, nu) -> int:
    """Littlewood-Richardson coefficient c_{lam,mu}^{nu} via puzzle counting.

    All three partitions must fit an s x (r-s) box.
    """
    r, s = integer(r, "r"), integer(s, "s")
    if s < 0 or s > r:
        raise GitkitError("bad_input", "need 0 <= s <= r", {"r": r, "s": s})
    i_set, j_set, k_set = (partition_to_subset(r, s, p) for p in (lam, mu, nu))
    return count_puzzles(r, i_set, j_set, k_set)


@dataclass(frozen=True)
class AssocReport:
    r: int
    s: int
    cases: int
    passed: bool
    counterexample: tuple | None


ASSOC_CASES_CAP = 10 ** 6


def associativity_check(r: int, s: int, seed: int = 0, max_cases: int | None = None) -> AssocReport:
    """Verify sum_K n_IJ^K n_KL^M = sum_K n_JL^K n_IK^M over boundary quadruples.

    Quadruples are numbered in `itertools.product` order; above max_cases,
    `random.Random(seed)` samples max_cases of the numbers.  A check of more
    than ASSOC_CASES_CAP quadruples is refused (too_large)."""
    r, _ = _checked(r)
    s, seed = integer(s, "s"), integer(seed, "seed")
    if not 0 <= s <= r:
        raise GitkitError("bad_input", "need 0 <= s <= r", {"r": r, "s": s})
    if max_cases is not None and (max_cases := integer(max_cases, "max_cases")) < 1:
        raise GitkitError("bad_input", "max_cases must be at least 1", {"max_cases": max_cases})
    subsets = list(itertools.combinations(range(1, r + 1), s))
    m = len(subsets)
    picks = range(m ** 4)
    cases = len(picks) if max_cases is None else min(len(picks), max_cases)
    if cases > ASSOC_CASES_CAP:
        raise GitkitError("too_large", f"associativity check capped at {ASSOC_CASES_CAP} "
                          "quadruples", {"cases": cases, "cap": ASSOC_CASES_CAP})
    if cases < len(picks):
        picks = random.Random(seed).sample(picks, cases)
    table = functools.cache(functools.partial(count_puzzles_all_k, r))   # rows on first read
    for n in picks:
        i_s, j_s, l_s, m_s = (subsets[n // m ** e % m] for e in (3, 2, 1, 0))
        lhs = sum(cnt * table(k, l_s).get(m_s, 0) for k, cnt in table(i_s, j_s).items())
        rhs = sum(cnt * table(i_s, k).get(m_s, 0) for k, cnt in table(j_s, l_s).items())
        if lhs != rhs:
            return AssocReport(r, s, cases, False, (i_s, j_s, l_s, m_s))
    return AssocReport(r, s, cases, True, None)
