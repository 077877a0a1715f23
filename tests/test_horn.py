"""Spectra of Hermitian sums: inequality systems and the Jacobi validator.

numpy.linalg.eigvalsh is the frozen oracle for the hand-rolled Jacobi sweep;
the two implementations share no code beyond matrix storage.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gitkit.characters import _su2_invariant_dim
from gitkit.horn import (
    SampleReport,
    _horn_system,
    _jacobi_batch,
    check_triple,
    generate_horn_system,
    jacobi_eigenvalues,
    polygon_nonempty,
    sample_hermitian_validate,
    sl2_config_semistable,
    spectrum,
    zero_sum_spectra,
    zero_sum_triples,
)
from gitkit.lie import GitkitError


def test_spectrum_sorting_contract():
    assert spectrum(["3", "1"]) == (3, 1)
    assert spectrum([Fraction(1, 2), Fraction(1, 3)]) == (Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(GitkitError):
        spectrum([1, 2])


def test_system_r2_contents():
    sys2 = generate_horn_system(2)
    # box sizes force |K| boxes = |I| + |J| boxes, leaving three triples
    assert sys2.r == 2
    assert all(n == 1 for *_ignore, n in sys2.triples)
    assert set(sys2.triples) == {
        ((1,), (2,), (1,), 1),
        ((2,), (1,), (1,), 1),
        ((2,), (2,), (2,), 1),
    }


def test_system_modes_and_bounds():
    allpos = generate_horn_system(4, "all-positive")
    irr = generate_horn_system(4, "irredundant")
    assert set(irr.triples) <= set(allpos.triples)
    assert all(n == 1 for *_ignore, n in irr.triples)
    with pytest.raises(GitkitError):
        generate_horn_system(1)
    with pytest.raises(GitkitError):
        generate_horn_system(7)
    with pytest.raises(GitkitError):
        generate_horn_system(3, "fast")


def test_system_json_shape():
    js = generate_horn_system(2).to_json()
    assert js["trace_equality"] is True
    assert js["r"] == 2
    assert {"I": [1], "J": [2], "K": [1], "count": 1} in js["triples"]


def test_check_triple_hand_cases():
    # eigenvalues of diag(1,0) + diag(1,0) rotated: c between (2,0) and (1,1)
    assert check_triple((1, 0), (1, 0), (2, 0)).feasible
    assert check_triple((1, 0), (1, 0), (1, 1)).feasible
    res = check_triple((1, 0), (1, 0), (3, -1))
    assert not res.feasible
    assert res.violated == ((2,), (2,), (2,))
    res = check_triple((1, 0), (1, 0), (2, 1))
    assert not res.feasible
    assert res.violated == ("trace",)


def test_check_triple_rational():
    a = (Fraction(1, 2), 0)
    b = (Fraction(1, 3), 0)
    ok = (Fraction(5, 6), 0)
    assert check_triple(a, b, ok).feasible
    edge = (Fraction(5, 6) + Fraction(1, 100), -Fraction(1, 100))
    assert check_triple(a, b, edge).feasible is False


def test_check_triple_boundary_is_feasible():
    # equality in an inequality is still membership
    assert check_triple((2, 1, 0), (0, 0, 0), (2, 1, 0)).feasible


def test_zero_sum_rewrite():
    a, b, c3 = zero_sum_spectra((3, 1), (2, 1), (4, 3))
    assert a == (3, 1) and b == (2, 1)
    assert c3 == (-3, -4)
    assert sum(a) + sum(b) + sum(c3) == 0
    sys2 = generate_horn_system(2)
    zs = zero_sum_triples(sys2)
    assert len(zs) == len(sys2.triples)
    # K reflects through k -> r + 1 - k
    assert ((1,), (2,), (2,), 1) in zs
    assert ((2,), (2,), (1,), 1) in zs


def test_zero_sum_triples_bound_the_rewrite():
    a, b, c3 = zero_sum_spectra((3, 1), (2, 1), (5, 2))
    for i_set, j_set, k_set, _n in zero_sum_triples(generate_horn_system(2)):
        total = (sum(a[i - 1] for i in i_set) + sum(b[j - 1] for j in j_set)
                 + sum(c3[k - 1] for k in k_set))
        assert total <= 0


def test_jacobi_matches_library_on_reals():
    rng = np.random.default_rng(123)
    for n in (1, 2, 3, 5):
        for _ in range(5):
            m = rng.standard_normal((n, n))
            h = (m + m.T) / 2
            ours = jacobi_eigenvalues(h)
            ref = sorted(np.linalg.eigvalsh(h).tolist(), reverse=True)
            assert np.allclose(ours, ref, atol=1e-9)


def test_jacobi_matches_library_on_complex():
    rng = np.random.default_rng(321)
    for n in (2, 3, 4):
        for _ in range(5):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = (m + m.conj().T) / 2
            ours = jacobi_eigenvalues(h)
            ref = sorted(np.linalg.eigvalsh(h).tolist(), reverse=True)
            assert np.allclose(ours, ref, atol=1e-9)


def test_jacobi_rejects_non_hermitian():
    with pytest.raises(GitkitError):
        jacobi_eigenvalues([[0, 1], [0, 0]])
    with pytest.raises(GitkitError):
        jacobi_eigenvalues([[1, 2, 3], [4, 5, 6]])


# Bit-for-bit pins.  The strings below are repr() of the results of the
# per-matrix rotation loop that preceded the lockstep batch (the
# `_loop_jacobi` reference below), recorded on the inputs built here.

def _pinned_matrices():
    """Real symmetric (the doubling then has many exact-zero pivots),
    singular rounded-integer and complex Hermitian matrices for n = 1..7,
    then a few hand cases with signed zeros and negligible pivots."""
    rng = np.random.default_rng(20261018)
    out = []
    for n in range(1, 8):
        g = rng.standard_normal((n, n))
        out.append((g + g.T) / 2)
        x = np.round(3 * rng.standard_normal((n, max(n - 2, 0))))
        out.append(x @ x.T)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out.append((m + m.conj().T) / 2)
    out.append(np.diag([-0.0, 3.0, -0.0]))
    out.append(np.array([[1.0, 0.0, 2.0], [0.0, 5.0, 0.0], [2.0, 0.0, 1.0]]))
    out.append(np.array([[1.0, 1e-31], [1e-31, 2.0]]))
    out.append(np.array([[2, 1j, 0], [-1j, 2, -3], [0, -3, -1]]))
    return out


PINNED_SPECTRA = [
    '[1.719322713705985]',
    '[0.0]',
    '[0.19430952285125133]',
    '[0.6173748446939213, -0.139102749377564]',
    '[0.0, 0.0]',
    '[0.9073769107297651, -1.9973420020964472]',
    '[1.37126744733233, 0.5463890638699742, -1.7751895837385743]',
    '[60.99999999999999, 0.0, -1.5257084510814462e-15]',
    '[2.4351101024215, 0.08256897201653787, -1.988569032689273]',
    '[2.7640478356117755, 1.7554342032368218, -0.9077153258992448, -1.5966630145825718]',
    '[66.58456208473912, 4.415437915260895, -1.1407942261355747e-16, -1.7128007965841506e-15]',
    '[2.2622485090832134, 0.39087716904418335, -0.5329643928302628, -3.8410072626115546]',
    '[0.8093246660279678, 0.4786684903060452, -0.8728883918547701, -2.4854384258748325, -3.3206030553612216]',
    '[60.286326156031976, 34.5966427619272, 24.11703108204077, 7.564845952698122e-16, -4.623313028581786e-15]',
    '[3.3899123405234186, 2.2675727553488, 0.7617037301008985, -0.4691299648272462, -3.1216248304372614]',
    '[3.5952013229125774, 1.296615278300968, 0.39200059096305256, 0.01441475784278609, -1.0441693524096274, -2.7414646377643646]',
    '[104.34950112672308, 35.905617228587424, 7.734724330290891, 7.010157314398797, -1.937036493689312e-15, -5.1895753939584475e-15]',
    '[4.867023537568001, 2.5884483164703953, 1.0156438582687888, 0.0878404577998794, -1.5616881974144325, -2.3616998652125014]',
    '[2.2529937111404372, 1.7821043011813686, 1.5239583859944368, 0.18058728393101728, -1.5423011442622234, -2.2814369303209485, -3.2218418733850784]',
    '[142.1900826553449, 94.99175483149267, 59.382308508887654, 15.799023041095722, 1.6368309631792162, 2.48827932841541e-15, -4.398592307133609e-15]',
    '[5.393663951038941, 2.8425054159488328, 0.2924042360820662, -1.0389178458534731, -1.9202574319292234, -3.5889884237725904, -4.00080471783712]',
    '[3.0, -0.0, -0.0]',
    '[5.0, 2.9999999999999996, -0.9999999999999998]',
    '[2.0, 1.0]',
    '[4.190470033350819, 1.7211578094052262, -2.911627842756043]',
]

# (r, seed, trials): (violations, repr of max_slack_error, repr of max_trace_error)
PINNED_REPORTS = {
    (2, 0, 0): (0, '0.0', '0.0'),
    (2, 9, 50): (0, '0.0', '3.1086244689504383e-15'),
    (3, 1, 20): (0, '0.0', '1.0658141036401503e-14'),
    (3, 42, 7): (0, '0.0', '6.217248937900877e-15'),
    (4, 7, 10): (0, '0.0', '1.4432899320127035e-14'),
    (5, 3, 4): (0, '0.0', '2.6645352591003757e-14'),
    (6, 11, 2): (0, '0.0', '1.5987211554602254e-14'),
}


def _loop_jacobi(h, tol=1e-12, max_sweeps=100):
    """The per-matrix rotation loop, kept as the reference for bit identity."""
    import math

    a = np.asarray(h, dtype=complex)
    x, y = a.real.copy(), a.imag.copy()
    s_mat = np.block([[x, -y], [y, x]])
    n = 2 * a.shape[0]
    scale = max(1.0, float(np.linalg.norm(s_mat)))
    for _sweep in range(max_sweeps):
        off_part = s_mat - np.diag(np.diag(s_mat))
        off = math.sqrt(float(np.sum(off_part ** 2)))
        if off <= tol * scale:
            return sorted(np.diag(s_mat).tolist(), reverse=True)[0::2]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = s_mat[p, q]
                if abs(apq) <= 1e-30:
                    continue
                tau = (s_mat[q, q] - s_mat[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                cth = 1.0 / math.sqrt(1.0 + t * t)
                sth = t * cth
                cp = s_mat[:, p].copy()
                cq = s_mat[:, q].copy()
                s_mat[:, p] = cth * cp - sth * cq
                s_mat[:, q] = sth * cp + cth * cq
                rp = s_mat[p, :].copy()
                rq = s_mat[q, :].copy()
                s_mat[p, :] = cth * rp - sth * rq
                s_mat[q, :] = sth * rp + cth * rq
    raise AssertionError("reference Jacobi did not converge")


def test_jacobi_bits_pinned():
    mats = _pinned_matrices()
    assert [repr(jacobi_eigenvalues(h)) for h in mats] == PINNED_SPECTRA
    assert [repr(_loop_jacobi(h)) for h in mats] == PINNED_SPECTRA


def test_jacobi_matches_loop_reference_bit_for_bit():
    rng = np.random.default_rng(77)
    for n in range(1, 6):
        for _ in range(4):
            g = rng.standard_normal((n, n))
            m = g + 1j * rng.standard_normal((n, n))
            for h in ((g + g.T) / 2, np.round(2 * (g + g.T)), (m + m.conj().T) / 2):
                assert repr(jacobi_eigenvalues(h)) == repr(_loop_jacobi(h)), h


def test_sample_report_bits_pinned():
    for (r, seed, trials), (violations, slack, trace) in PINNED_REPORTS.items():
        rep = sample_hermitian_validate(r, trials=trials, seed=seed)
        assert (rep.r, rep.trials, rep.violations) == (r, trials, violations)
        assert repr(float(rep.max_slack_error)) == slack, (r, seed, trials)
        assert repr(float(rep.max_trace_error)) == trace, (r, seed, trials)


def test_batch_matches_single_calls():
    # lanes that converge at different sweeps, with signed zeros and
    # exact-zero pivots, diagonalized together and one at a time
    rng = np.random.default_rng(5)
    r = 4
    mats = [np.diag([-0.0, 2.0, -0.0, -1.0]), np.zeros((r, r))]
    for _ in range(3):
        g = rng.standard_normal((r, r))
        m = g + 1j * rng.standard_normal((r, r))
        mats += [(g + g.T) / 2, np.round(g @ g.T), (m + m.conj().T) / 2]
        # a -0.0 that never rotates alone, in lanes that stay in the batch
        # while the others rotate its pivots; a skipped lane keeps its sign
        for h in (g + g.T, m + m.conj().T):
            h[-1, :] = h[:, -1] = 0.0
            h[-1, -1] = -0.0
            mats.append(h)
    stack = np.stack([np.asarray(h, dtype=complex) for h in mats])
    assert repr(_jacobi_batch(stack)) == repr([jacobi_eigenvalues(h) for h in mats])
    assert _jacobi_batch(np.zeros((0, r, r), dtype=complex)) == []


_SIGN = st.sampled_from([1.0, -1.0])
_ENTRY = st.one_of(
    st.integers(-9, 9).map(float),
    st.builds(lambda k, e: k / 2.0 ** e, st.integers(-64, 64), st.integers(1, 8)),
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, x: sign * x * 1e-31, _SIGN, st.floats(0.5, 2.0)),
    st.builds(lambda sign, x: sign * x * 1e150, _SIGN, st.floats(0.5, 4.0)),
)


@st.composite
def _hermitian(draw):
    """Hermitian matrices with n = 0..7: Gaussian ones, real or complex, or
    entries drawn one by one from integers, dyadic rationals, signed zeros,
    pivots near 1e-31 (below the 1e-30 skip test) and magnitudes near 1e150."""
    n = draw(st.integers(0, 7))
    is_complex = draw(st.booleans())
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        m = rng.standard_normal((n, n)) + 1j * is_complex * rng.standard_normal((n, n))
        return (m + m.conj().T) / 2
    h = np.zeros((n, n), dtype=complex)
    for i in range(n):
        h[i, i] = draw(_ENTRY)
        for j in range(i + 1, n):
            re, im = draw(_ENTRY), draw(_ENTRY) if is_complex else 0.0
            h[i, j], h[j, i] = complex(re, im), complex(re, -im)
    return h


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_hermitian())
def test_scalar_and_batch_jacobi_match_loop_reference_bits(h):
    # one matrix goes through the scalar loop, a stack through the lockstep
    # batch; both must give the per-matrix loop's bits.  Near 1e150,
    # tau * tau overflows to inf (harmless: t becomes 0); only the reference's
    # numpy scalars are silenced here, so a warning from gitkit still shows
    with np.errstate(over="ignore"):
        want = repr(_loop_jacobi(h))
    assert repr(jacobi_eigenvalues(h)) == want
    assert repr(_jacobi_batch(h[None])[0]) == want


def test_jacobi_empty_matrix():
    assert jacobi_eigenvalues(np.zeros((0, 0))) == []


@pytest.mark.parametrize("bad", [[["a"]], [["1"]], [[1.0, 2.0], [3.0]], [[object()]],
                                 [[10 ** 400]]])
def test_jacobi_rejects_malformed_entries(bad):
    with pytest.raises(GitkitError) as exc:
        jacobi_eigenvalues(bad)
    assert exc.value.code == "bad_matrix"


@pytest.mark.parametrize("controls", [
    {"max_sweeps": "3"}, {"max_sweeps": -1}, {"max_sweeps": 2.0}, {"max_sweeps": True},
    {"tol": float("nan")}, {"tol": float("inf")}, {"tol": -1.0}, {"tol": "1e-9"},
])
def test_jacobi_rejects_bad_controls(controls):
    with pytest.raises(GitkitError) as exc:
        jacobi_eigenvalues([[1.0]], **controls)
    assert exc.value.code == "bad_input"


def test_system_rejects_non_integer_rank_cold_and_warm():
    _horn_system.cache_clear()
    for _ in range(2):
        # the second round runs with (3, 'all-positive') cached
        with pytest.raises(GitkitError) as exc:
            generate_horn_system(3.0)
        assert exc.value.code == "bad_rank"
        generate_horn_system(3)
    assert generate_horn_system(np.int64(3)) is generate_horn_system(3)


def test_horn_and_su2_caches_are_bounded():
    assert _horn_system.cache_info().maxsize is not None
    assert _su2_invariant_dim.cache_info().maxsize is not None


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, -1, "1e-8"])
def test_sample_rejects_bad_tol(tol):
    with pytest.raises(GitkitError) as exc:
        sample_hermitian_validate(2, trials=3, tol=tol)
    assert exc.value.code == "bad_input"


@pytest.mark.parametrize("args", [{"r": 2.0}, {"r": "2"}, {"seed": "x"}, {"seed": 1.5},
                                  {"seed": -1}])
def test_sample_rejects_bad_rank_or_seed(args):
    with pytest.raises(GitkitError) as exc:
        sample_hermitian_validate(**{"r": 2, "trials": 3, **args})
    assert exc.value.code == "bad_input"


@pytest.mark.parametrize("bad", [
    [[float("nan")]],
    [[float("inf")]],
    [[1.0, 2.0], [2.0, -float("inf")]],
    [[1.0, complex(0.0, float("nan"))], [complex(0.0, float("nan")), 1.0]],
])
def test_jacobi_rejects_non_finite(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GitkitError) as exc:
            jacobi_eigenvalues(bad)
    assert exc.value.code == "bad_matrix"


@pytest.mark.parametrize("big", [
    [[1e200, 3e200], [3e200, 1e200]],
    [[1e155]],
    [[1.0, complex(0.0, 1e160)], [complex(0.0, -1e160), 1.0]],
])
def test_jacobi_rejects_overflowing_norm(big):
    # finite entries whose squares overflow would pass the sweep test at once
    # and give back the unrotated diagonal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GitkitError) as exc:
            jacobi_eigenvalues(big)
    assert exc.value.code == "bad_matrix"


def test_jacobi_large_finite_norm():
    got = jacobi_eigenvalues([[1e153, 3e153], [3e153, 1e153]])
    assert np.allclose(got, [4e153, -2e153], rtol=1e-12, atol=0.0)


def test_jacobi_sweep_limit():
    with pytest.raises(GitkitError) as exc:
        jacobi_eigenvalues([[1.0, 2.0, 0.5], [2.0, -1.0, 3.0], [0.5, 3.0, 0.0]], max_sweeps=1)
    assert exc.value.code == "jacobi_no_convergence"
    assert jacobi_eigenvalues([[2.0, 0.0], [0.0, 1.0]], max_sweeps=1) == [2.0, 1.0]


def test_sample_rejects_negative_trials():
    with pytest.raises(GitkitError) as exc:
        sample_hermitian_validate(2, trials=-5)
    assert exc.value.code == "bad_input"
    assert sample_hermitian_validate(2, trials=0) == SampleReport(2, 0, 0, 0.0, 0.0)


@pytest.mark.parametrize("trials", [2.5, True, "3"])
def test_sample_rejects_non_integer_trials(trials):
    with pytest.raises(GitkitError) as exc:
        sample_hermitian_validate(2, trials=trials)
    assert exc.value.code == "bad_input"


def test_sampled_spectra_satisfy_system():
    report = sample_hermitian_validate(2, trials=50, seed=9)
    assert report.violations == 0
    assert report.trials == 50
    assert report.max_slack_error <= 0.0 + 1e-9
    assert report.max_trace_error < 1e-9


def test_polygon_inequality():
    assert polygon_nonempty([3, 4, 5])
    assert polygon_nonempty([1, 1, 2])          # flat counts
    assert not polygon_nonempty([1, 1, 3])
    assert polygon_nonempty([1, 1])
    assert not polygon_nonempty([1, 2])
    with pytest.raises(GitkitError):
        polygon_nonempty([1])
    with pytest.raises(GitkitError):
        polygon_nonempty([1, -1, 1])


def test_sl2_semistability():
    ok, witness = sl2_config_semistable([1, 1, 1])
    assert ok and witness is None
    ok, witness = sl2_config_semistable([("p", 3), ("q", 1)])
    assert not ok and witness == "p"
    # pooled duplicate labels can tip the balance
    ok, witness = sl2_config_semistable([("p", 1), ("p", 1), ("q", 1)])
    assert not ok and witness == "p"
    ok, _ = sl2_config_semistable([("p", 1), ("q", 1)], expected_total=2)
    assert ok
    with pytest.raises(GitkitError):
        sl2_config_semistable([("p", 1)], expected_total=3)
    with pytest.raises(GitkitError):
        sl2_config_semistable([])
