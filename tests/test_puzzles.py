"""Triangle fillings against the exact character route.

count_puzzles has its own row-by-row dynamic programming; every count is
cross-checked here against multiplicities read off tensor_decompose, which
shares no code with the filling enumeration.
"""

import itertools

import pytest

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
    ok, _ = check_filling(4, (2, 4), (2, 4), (2, 3), edges)
    assert not ok


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
