"""Triangle fillings against the exact character route.

count_puzzles has its own row-by-row dynamic programming; every count is
cross-checked here against multiplicities read off tensor_decompose, which
shares no code with the filling enumeration.
"""

import collections
import itertools
import math
import random

import pytest

from gitkit import puzzles
from gitkit.characters import tensor_decompose
from gitkit.lie import GitkitError
from gitkit.puzzles import (
    DOWN_PIECES,
    UP_PIECES,
    associativity_check,
    check_filling,
    count_puzzles,
    count_puzzles_all_k,
    enumerate_puzzles,
    lr_coefficient,
    partition_to_subset,
    subset_to_partition,
)


def lr_via_characters(r, s, lam, mu, nu):
    """Multiplicity of nu inside lam (x) mu, padded to GL(s) x rank r."""
    lam_full = tuple(lam[i] if i < len(lam) else 0 for i in range(s))
    mu_full = tuple(mu[i] if i < len(mu) else 0 for i in range(s))
    nu_full = tuple(nu[i] if i < len(nu) else 0 for i in range(s))
    out = tensor_decompose(lam_full, mu_full)
    return out.get(nu_full, 0)


def test_piece_tables_are_disjoint_edge_sets():
    # both orientations carry the same five labels once per slot
    assert len(UP_PIECES) == 5 and len(DOWN_PIECES) == 5
    assert {p[0] for p in UP_PIECES} == {0, 1, 2}
    assert {p[0] for p in DOWN_PIECES} == {0, 1, 2}


def test_worked_example_count():
    assert count_puzzles(4, (2, 4), (2, 4), (2, 3)) == 1


def test_worked_example_listing_is_valid():
    fillings = enumerate_puzzles(4, (2, 4), (2, 4), (2, 3))
    assert len(fillings) == 1
    ok, reason = check_filling(4, (2, 4), (2, 4), (2, 3), fillings[0])
    assert ok, reason


def test_enumerate_agrees_with_count():
    for iset, jset in [((1, 3), (2, 3)), ((2, 3), (2, 3)), ((1, 2), (1, 3))]:
        table = count_puzzles_all_k(3, iset, jset)
        for kset, n in table.items():
            fillings = enumerate_puzzles(3, iset, jset, kset)
            assert len(fillings) == n
            for f in fillings:
                ok, reason = check_filling(3, iset, jset, kset, f)
                assert ok, reason


def test_check_filling_rejects_tampering():
    fillings = enumerate_puzzles(4, (2, 4), (2, 4), (2, 3))
    edges = dict(fillings[0])
    key = next(k for k in edges if k.startswith("U:1:1"))
    edges[key] = (edges[key] + 1) % 3
    ok, reason = check_filling(4, (2, 4), (2, 4), (2, 3), edges)
    assert not ok
    assert reason


def test_check_filling_rejects_missing_edge():
    fillings = enumerate_puzzles(4, (2, 4), (2, 4), (2, 3))
    edges = dict(fillings[0])
    edges.pop(next(iter(edges)))
    ok, reason = check_filling(4, (2, 4), (2, 4), (2, 3), edges)
    assert not ok
    assert reason == "missing edge U:1:1:NW"
    # a defaultdict's default is not read as the missing edge, nor stored
    lenient = collections.defaultdict(int, edges)
    assert check_filling(4, (2, 4), (2, 4), (2, 3), lenient) == (False, reason)
    assert lenient == edges
    # a check that fails before the missing edge is read is the one reported
    edges = {**fillings[0], "U:1:1:NW": 2, "U:1:1:NE": 2, "U:1:1:S": 2}
    del edges["U:4:4:S"]
    assert check_filling(4, (2, 4), (2, 4), (2, 3), edges) == (
        False, "illegal up piece (2, 2, 2) at (1,1)")


# Edits of the legal filling of (4, {2,4}, {2,4}, {2,3}), each reported by
# its own check.  A mismatch edit puts a legal piece in place of another, so
# every piece stays legal and only the gluing fails.
def _with_piece(edges, kind, i, j, pick):
    slots = ("NW", "NE", "S") if kind == "U" else ("N", "SW", "SE")
    old = tuple(edges[f"{kind}:{i}:{j}:{slot}"] for slot in slots)
    new = pick(old)
    return {**edges, **{f"{kind}:{i}:{j}:{slot}": x for slot, x in zip(slots, new)}}, new


@pytest.mark.parametrize("kind, i, j, pick, reason", [
    ("D", 2, 1, lambda old: (2, 2, 2), "illegal down piece (2, 2, 2) at (2,1)"),
    ("U", 2, 1, lambda old: min(p for p in UP_PIECES if p[1] != old[1]),
     "NE/SW mismatch at (2,1)"),
    ("U", 2, 2, lambda old: min(p for p in UP_PIECES if p[0] != old[0]),
     "SE/NW mismatch at (2,1)"),
    ("U", 1, 1, lambda old: min(p for p in UP_PIECES if p[2] != old[2]),
     "S/N mismatch between rows 1 and 2 at column 1"),
], ids=["illegal-down", "ne-sw", "se-nw", "s-n"])
def test_check_filling_names_each_failed_check(kind, i, j, pick, reason):
    legal = enumerate_puzzles(4, (2, 4), (2, 4), (2, 3))[0]
    edges, new = _with_piece(legal, kind, i, j, pick)
    if "mismatch" in reason:
        assert new in UP_PIECES
    assert check_filling(4, (2, 4), (2, 4), (2, 3), edges) == (False, reason)


def test_a_two_on_the_south_side_is_not_a_puzzle():
    # the one piece with NW 1 and NE 0 has S 2, which may not reach the boundary
    assert count_puzzles_all_k(1, (1,), ()) == {}
    assert count_puzzles(1, (1,), (), ()) == 0
    assert enumerate_puzzles(1, (1,), (), ()) == []


def test_counts_match_characters_rank_up_to_4():
    bad = []
    for r in range(1, 5):
        for s in range(1, r):
            subsets = list(itertools.combinations(range(1, r + 1), s))
            for iset in subsets:
                for jset in subsets:
                    table = count_puzzles_all_k(r, iset, jset)
                    lam = subset_to_partition(r, iset)
                    mu = subset_to_partition(r, jset)
                    for kset in subsets:
                        nu = subset_to_partition(r, kset)
                        want = lr_via_characters(r, s, lam, mu, nu)
                        got = table.get(kset, 0)
                        if want != got:
                            bad.append((r, s, iset, jset, kset, want, got))
    assert bad == []


def test_all_k_table_total_is_full_count():
    # summing over south boundaries counts fillings with a free south side
    table = count_puzzles_all_k(4, (1, 3), (2, 4))
    total = sum(table.values())
    per_k = sum(count_puzzles(4, (1, 3), (2, 4), k)
                for k in itertools.combinations(range(1, 5), 2))
    assert total == per_k


def test_subset_partition_bijection():
    for r in range(1, 7):
        for s in range(1, r):
            for sub in itertools.combinations(range(1, r + 1), s):
                lam = subset_to_partition(r, sub)
                assert len(lam) == s
                assert all(lam[i] >= lam[i + 1] for i in range(s - 1))
                assert all(0 <= v <= r - s for v in lam)
                assert partition_to_subset(r, s, lam) == sub


def test_lr_coefficient_wrapper():
    # first hand case: two-row shapes inside rank 4
    assert lr_coefficient(4, 2, (1, 0), (1, 0), (1, 1)) == 1
    assert lr_coefficient(4, 2, (1, 0), (1, 0), (2, 0)) == 1
    assert lr_coefficient(4, 2, (1, 0), (1, 0), (2, 2)) == 0
    assert lr_coefficient(4, 2, (2, 1), (2, 1), (2, 1)) == 0


def test_bad_subset_raises():
    with pytest.raises(GitkitError):
        count_puzzles(3, (0, 1), (1, 2), (1, 2))
    with pytest.raises(GitkitError):
        count_puzzles(3, (1, 4), (1, 2), (1, 2))
    with pytest.raises(GitkitError):
        count_puzzles(9, (1,), (1,), (1,))
    # mismatched cardinalities are a legal boundary with no fillings
    assert count_puzzles(3, (1, 2), (1,), (1, 2)) == 0


def test_associativity_sweep_rank4():
    report = associativity_check(4, 2, seed=3, max_cases=40)
    assert report.passed
    assert report.counterexample is None
    assert report.cases == 40


def test_associativity_rejects_bad_sizes():
    for r, s, max_cases in [(3, -1, None), (3, 5, None), (3, 1, 0), (3, 1, -2)]:
        with pytest.raises(GitkitError) as exc:
            associativity_check(r, s, max_cases=max_cases)
        assert exc.value.code == "bad_input", (r, s, max_cases)
    with pytest.raises(GitkitError) as exc:
        associativity_check(9, 1, max_cases=5)
    assert exc.value.code == "bad_rank"
    # 70^4 quadruples unsampled; a sample of them is cheap
    with pytest.raises(GitkitError) as exc:
        associativity_check(8, 4)
    assert exc.value.code == "too_large"
    with pytest.raises(GitkitError) as exc:
        associativity_check(8, 4, max_cases=puzzles.ASSOC_CASES_CAP + 1)
    assert exc.value.code == "too_large"
    report = associativity_check(8, 4, seed=1, max_cases=5)
    assert report.passed and report.cases == 5


def test_associativity_fills_only_the_rows_it_reads(monkeypatch):
    # each sampled quadruple reads two rows and at most C(8,4) rows per side;
    # the full table would be C(8,4)^2 = 4900 DP passes
    calls = []
    real = puzzles.count_puzzles_all_k
    monkeypatch.setattr(puzzles, "count_puzzles_all_k",
                        lambda r, a, b: calls.append((a, b)) or real(r, a, b))
    report = associativity_check(8, 4, seed=1, max_cases=5)
    assert report.passed and report.cases == 5
    assert 0 < len(calls) <= 5 * (2 + 2 * math.comb(8, 4))
    assert len(calls) == len(set(calls))


def test_associativity_samples_quadruples_in_product_order(monkeypatch):
    # A table that is not associative, so the check stops at the first bad
    # quadruple it draws; the earlier code sampled the list of all
    # quadruples in itertools.product order, and the same draw must come up.
    def fake(r, a, b):
        return {c: (3 * sum(a) + 5 * sum(b) + sum(c)) % 4 for c in subsets}
    monkeypatch.setattr(puzzles, "count_puzzles_all_k", fake)
    subsets = list(itertools.combinations(range(1, 5), 2))
    quads = list(itertools.product(subsets, repeat=4))
    failures = 0
    for seed in range(20):
        for k in (1, 3, 40):
            want = None
            for i_s, j_s, l_s, m_s in random.Random(seed).sample(quads, k):
                lhs = sum(n * fake(4, c, l_s).get(m_s, 0) for c, n in fake(4, i_s, j_s).items())
                rhs = sum(n * fake(4, i_s, c).get(m_s, 0) for c, n in fake(4, j_s, l_s).items())
                if lhs != rhs:
                    want = (i_s, j_s, l_s, m_s)
                    break
            report = associativity_check(4, 2, seed=seed, max_cases=k)
            assert report.counterexample == want and report.cases == k
            failures += want is not None
    assert failures > 20
