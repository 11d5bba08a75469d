import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmonica.activations import activation
from harmonica.errors import (ConvergenceError, FitError, StructuralError,
                              TruncationError)
from harmonica.harmonics import funk_hecke_eigenvalue, sphere_surface
from harmonica.image import sample_uniform, sample_uniform_batch
from harmonica.kernel import (KernelSpec, TruncationConfig, build_kernel,
                              eval_kernel)
from harmonica import spectrum, taylor
from harmonica.spectrum import (KAPPA, SpectralExpansion, SpectrumEntry,
                                canonical_profile, enumerate_spectrum,
                                expand_spectrum, fit_decay, lambda_table,
                                mu_eigenvalue, profile_multiplicity,
                                eigenvalue_windows)
from harmonica.taylor import (compose, exp_series, geometric_series,
                              power, series_from)

from conftest import brute_force_mercer
from helpers import fsum_product, gathered_lambda_table

EXP = exp_series(64)


@pytest.fixture(scope="module")
def decay_kernel():
    """The spectrum-decay benchmark kernel (geometric 0.9 into identity,
    n = 1, d = 2, f1 order 4000) with its k_max = 1200 table."""
    spec = build_kernel([activation("geometric", ratio=0.9),
                         activation("identity")], 1, 2,
                        TruncationConfig(series_order=4000, k_max=1200))
    return spec, lambda_table(spec.f1, 2, 1200, spec.q_cap)


def test_lambda_alpha_zero_column():
    tab = lambda_table(EXP, 3, 8, 3)
    assert tab.lam[0, 0] == pytest.approx(
        sphere_surface(2) * math.gamma(1.0) * math.gamma(0.5)
        / (2 * math.gamma(1.5)))
    np.testing.assert_array_equal(tab.lam[1:, 0], 0.0)


def test_lambda_bessel_ratios_d2():
    # for f1 = exp on the circle the closed form reduces to pi * I_k(1);
    # oracle: the Bessel series sum_s (1/2)^(2s+k) / (s! (s+k)!)
    tab = lambda_table(EXP, 2, 9, 1)

    def bessel_series(k):
        return sum((0.5) ** (2 * s + k) / (math.factorial(s) * math.factorial(s + k))
                   for s in range(40))

    for k in range(9):
        want = bessel_series(k) / bessel_series(k + 1)
        got = tab.lam[k, 1] / tab.lam[k + 1, 1]
        assert got == pytest.approx(want, rel=1e-8)


def test_lambda_matches_quadrature_up_to_kappa():
    for d in (2, 3, 4):
        for f1 in (EXP, geometric_series(0.5, 96)):
            tab = lambda_table(f1, d, 10, 4)
            scale = tab.lam[:, 1].max()
            ratios = [funk_hecke_eigenvalue(f1, k, d) / tab.lam[k, 1]
                      for k in range(11) if tab.lam[k, 1] > 1e-13 * scale]
            assert max(abs(r - 2.0) for r in ratios) / 2.0 < 1e-10
            for alpha in range(5):
                fa = power(f1, alpha, f1.order)
                for k in range(11):
                    fh = funk_hecke_eigenvalue(fa, k, d)
                    if tab.lam[k, alpha] > 1e-250:
                        ratio = fh / tab.lam[k, alpha]
                        assert ratio == pytest.approx(tab.kappa, rel=1e-6)
                    else:
                        assert abs(fh) < 1e-12


def _mp_zonal_coeffs(k, d):
    """Monomial coefficients of P_{k,d}, P_{k,d}(1) = 1, from the explicit
    Chebyshev (d = 2) and Gegenbauer sums, not from a Rodrigues form."""
    c = [mpmath.mpf(0)] * (k + 1)
    for j in range(k // 2 + 1):
        if d == 2:
            w = (mpmath.mpf(k) / 2 * mpmath.factorial(k - j - 1) if k else 1)
        else:
            w = mpmath.gamma(k - j + mpmath.mpf(d - 2) / 2)
        c[k - 2 * j] = ((-1) ** j * w * mpmath.mpf(2) ** (k - 2 * j)
                        / (mpmath.factorial(j) * mpmath.factorial(k - 2 * j)))
    return [v / mpmath.fsum(c) for v in c]


def _mp_funk_hecke_monomial(m, k, d):
    """int t^m P_{k,d}(t) (1-t^2)^{(d-3)/2} dt, one Beta integral per
    monomial of t^m P_{k,d}(t)."""
    a = mpmath.mpf(d - 3) / 2
    return mpmath.fsum(c * mpmath.beta(mpmath.mpf(m + i + 1) / 2, a + 1)
                       for i, c in enumerate(_mp_zonal_coeffs(k, d))
                       if (m + i) % 2 == 0)


def _mp_closed_form_term(m, k, d):
    s = (m - k) // 2
    return (mpmath.gamma(mpmath.mpf(d - 1) / 2) / mpmath.mpf(2) ** (k + 1)
            * mpmath.factorial(m) / mpmath.factorial(2 * s)
            * mpmath.gamma(s + mpmath.mpf(1) / 2)
            / mpmath.gamma(s + k + mpmath.mpf(d) / 2))


def test_kappa_is_exactly_two_on_monomials():
    # the Rodrigues derivation of KAPPA, checked at 40 digits: Funk-Hecke of
    # t^m over P_{k,d} is KAPPA times the closed-form term for every d and k
    with mpmath.workdps(40):
        for d in (2, 3, 4, 5, 9):
            for k in range(7):
                for m in range(k, k + 9, 2):
                    fh = _mp_funk_hecke_monomial(m, k, d)
                    want = KAPPA * _mp_closed_form_term(m, k, d)
                    assert abs(fh / want - 1) < mpmath.mpf("1e-30"), (d, k, m)


def test_lambda_table_matches_mpmath_oracle_on_monomials():
    # lambda_table in float64 against the 40-digit Funk-Hecke integral / KAPPA
    with mpmath.workdps(40):
        for d in (2, 3, 4, 5, 9):
            for m in range(9):
                f1 = series_from([0.0] * m + [1.0], order=m + 2)
                tab = lambda_table(f1, d, m, 1)
                for k in range(m + 1):
                    fh = (sphere_surface(d - 1)
                          * _mp_funk_hecke_monomial(m, k, d) / KAPPA)
                    if (m - k) % 2:
                        assert tab.lam[k, 1] == 0.0
                        assert abs(fh) < mpmath.mpf("1e-35")
                    else:
                        assert tab.lam[k, 1] == pytest.approx(float(fh),
                                                              rel=1e-13)


def _mp_lambda(b, k, d):
    """Closed-form lambda[k] of the float coefficients b, summed at the
    working precision with mpmath log-gamma."""
    half = mpmath.mpf(1) / 2
    total = mpmath.fsum(
        mpmath.mpf(b[m]) * mpmath.exp(
            mpmath.loggamma(m + 1) - mpmath.loggamma(m - k + 1)
            + mpmath.loggamma((m - k) // 2 + half)
            - mpmath.loggamma((m - k) // 2 + k + mpmath.mpf(d) / 2))
        for m in range(k, len(b), 2) if b[m] > 0.0)
    # |S^{d-2}| Gamma((d-1)/2) = 2 pi^{(d-1)/2}
    return (2 * mpmath.pi ** (mpmath.mpf(d - 1) / 2) * total
            / mpmath.mpf(2) ** (k + 1))


def test_lambda_table_high_degree_matches_mpmath_loggamma():
    # the decay-law table (d=2, r=0.9, order 4000) at its highest degrees,
    # where the log-gamma arguments reach ~4000
    f1 = geometric_series(0.9, 4000)
    tab = lambda_table(f1, 2, 1200, 1)
    b = f1.asarray()
    with mpmath.workdps(30):
        for k in (1000, 1100, 1200):
            want = _mp_lambda(b, k, 2)
            assert abs(tab.lam[k, 1] / want - 1) <= 5e-13, k


def test_lambda_table_powers_match_per_alpha_power(monkeypatch):
    # one left-fold product per alpha gives the table per-alpha power() gives
    fast = lambda_table(EXP, 3, 10, 6)
    monkeypatch.setattr(spectrum, "power_table", lambda a, order:
                        lambda alpha: power(a, alpha, order))
    slow = lambda_table(EXP, 3, 10, 6)
    np.testing.assert_array_equal(fast.lam, slow.lam)
    np.testing.assert_array_equal(fast.tail, slow.tail)


def test_lambda_table_within_1e13_of_correctly_rounded_powers(monkeypatch):
    # the mercer-reconstruct benchmark kernel (exp -> exp, order 128,
    # A_max 24): powers from np.convolve products against powers whose
    # every coefficient is correctly rounded
    spec = build_kernel([activation("exp"), activation("exp")], 2, 3,
                        TruncationConfig(series_order=128, a_max=24, q_max=24))
    fast = lambda_table(spec.f1, 3, 16, spec.q_cap)
    monkeypatch.setattr(taylor, "cauchy_product", fsum_product)
    exact = lambda_table(spec.f1, 3, 16, spec.q_cap)
    assert (exact.lam > 0).any()
    np.testing.assert_allclose(fast.lam, exact.lam, rtol=1e-13, atol=0)
    np.testing.assert_allclose(fast.tail, exact.tail, rtol=1e-13, atol=0)


def test_lambda_table_convergence_guard():
    short = geometric_series(0.9, 64)
    with pytest.raises(ConvergenceError, match=r"^s-series tail 5\.107e-05 "
                       r">= 1\.0e-12 at k=0, alpha=1; raise the f1 order$"):
        lambda_table(short, 2, 60, 1)
    growing = series_from([1.1 ** m for m in range(41)], nonneg=True,
                          degree=math.inf)
    with pytest.raises(ConvergenceError, match=r"^s-series still growing at "
                       r"the coefficient boundary \(k=0, alpha=1\); raise "
                       r"the f1 order$"):
        lambda_table(growing, 3, 4, 2)


def _parity_gapped(d):
    """Majorants whose parity subsequences hold zeros: even degrees only
    with a zero constant (leading zeros in f1^alpha), odd degrees only
    (all-zero subsequences), and a polynomial (sums that end exactly)."""
    even = series_from([0.5 ** (m // 2) if m and m % 2 == 0 else 0.0
                        for m in range(201)], nonneg=True, degree=math.inf)
    odd = series_from([0.5 ** (m // 2) if m % 2 else 0.0
                       for m in range(202)], nonneg=True, degree=math.inf)
    poly = series_from([0.0, 0.5, 0.0, 0.5], order=40, nonneg=True)
    return [(f1, d, 12, 4) for f1 in (even, odd, poly)]


@pytest.mark.parametrize("case", [
    "decay", (exp_series(128), 3, 16, 24),
    *(c for d in (2, 3, 4, 9) for c in _parity_gapped(d))])
def test_lambda_table_matches_gathered_loop(case, decay_kernel):
    # the strided log-gamma views, and the skipped compaction of all-positive
    # subsequences, leave every entry bitwise what the index-array loop gave
    if case == "decay":
        spec, table = decay_kernel
        case = (spec.f1, 2, 1200, spec.q_cap)
    else:
        table = lambda_table(*case)
    lam, tail = gathered_lambda_table(*case)
    np.testing.assert_array_equal(table.lam, lam)
    np.testing.assert_array_equal(table.tail, tail)
    assert (table.lam > 0).any()


def test_parity_gapped_cases_reach_every_branch():
    # across the gapped cases some entries are exact zeros, some sums end
    # exactly (tail 0) and some are truncated (tail > 0)
    tables = [lambda_table(*c) for c in _parity_gapped(3)]
    lam = np.concatenate([t.lam.ravel() for t in tables])
    tail = np.concatenate([t.tail.ravel() for t in tables])
    assert (lam == 0).any() and ((lam > 0) & (tail == 0)).any()
    assert (tail > 0).any()


@settings(max_examples=80, deadline=None)
@given(coeffs=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
                       min_size=1, max_size=6),
       a_max=st.integers(0, 6), order=st.integers(0, 30),
       k_max=st.integers(0, 30), d=st.sampled_from([2, 3, 5]))
def test_lambda_table_on_polynomials_is_exact_or_refused(coeffs, a_max,
                                                         order, k_max, d):
    # a polynomial f1 holds f1^a_max whole, and then every s-series ends:
    # no tail, and the same bits as at any larger order; or it is refused
    f1 = series_from(coeffs, order=order, nonneg=True)
    k_max = min(k_max, order)
    degree = a_max * f1.degree
    if degree > order:
        with pytest.raises(TruncationError, match=(
                rf"^f1\^{a_max} has degree {degree}, above the f1 order "
                rf"{order}; raise truncation\.order$")):
            lambda_table(f1, d, k_max, a_max)
        return
    table = lambda_table(f1, d, k_max, a_max)
    longer = lambda_table(f1.truncated(order + 17), d, k_max, a_max)
    np.testing.assert_array_equal(table.lam, longer.lam)
    assert not table.tail.any() and not longer.tail.any()


def test_mu_profile_beyond_dstar_is_exact_zero():
    spec = build_kernel([activation("exp"), activation("identity")], 3, 3)
    tab = lambda_table(spec.f1, 3, 6, spec.q_cap)
    assert mu_eigenvalue(spec, (2, 1, 0), tab) == 0.0
    assert mu_eigenvalue(spec, (1, 1, 1), tab) == 0.0


def test_mu_single_patch_matches_composed_quadrature():
    # n=1: mu_(k) = sum_q a_q lam[k][q] should equal the quadrature
    # eigenvalue of (g o f1) up to kappa
    spec = build_kernel([activation("exp"), activation("square")], 1, 3)
    tab = lambda_table(spec.f1, 3, 10, spec.q_cap)
    gf1 = compose(spec.g, spec.f1, 64)
    for k in range(11):
        mu = mu_eigenvalue(spec, (k,), tab)
        fh = funk_hecke_eigenvalue(gf1, k, 3)
        assert fh == pytest.approx(tab.kappa * mu, rel=1e-6)


def test_mu_square_square_composition_oracle():
    # profile (0,0) for acts [square, square]: a_2 = 1 and the multinomial
    # sum is enumerated exhaustively
    spec = build_kernel([activation("square"), activation("square")], 2, 4)
    tab = lambda_table(spec.f1, 4, 4, spec.q_cap)
    want = 0.0
    for a1 in range(3):
        a2 = 2 - a1
        want += (math.factorial(2) / (math.factorial(a1) * math.factorial(a2))
                 * tab.lam[0, a1] * tab.lam[0, a2])
    got = mu_eigenvalue(spec, (0, 0), tab)
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(2 * tab.lam[0, 1] ** 2
                                + 2 * tab.lam[0, 2] * tab.lam[0, 0], rel=1e-14)


def test_mu_exhaustive_composition_oracle_n3():
    # brute-force over all compositions of q into 3 parts for a D=2 kernel
    spec = build_kernel([activation("exp"), activation("square")], 3, 3)
    tab = lambda_table(spec.f1, 3, 5, spec.q_cap)
    a_q = spec.g.coeffs
    for profile in [(0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 3, 0)]:
        want = 0.0
        for q in range(3):
            for comp in itertools.product(range(q + 1), repeat=3):
                if sum(comp) != q:
                    continue
                coef = a_q[q] * math.factorial(q)
                for c in comp:
                    coef /= math.factorial(c)
                term = coef
                for k, al in zip(profile, comp):
                    term *= tab.lam[k, al]
                want += term
        assert mu_eigenvalue(spec, profile, tab) == pytest.approx(want, rel=1e-13)


def test_mu_permutation_symmetry():
    spec = build_kernel([activation("exp"), activation("square")], 3, 3)
    tab = lambda_table(spec.f1, 3, 5, spec.q_cap)
    assert (mu_eigenvalue(spec, (2, 1, 0), tab)
            == mu_eigenvalue(spec, (0, 1, 2), tab)
            == mu_eigenvalue(spec, (1, 0, 2), tab))


def test_mu_truncation_error():
    spec = build_kernel([activation("exp"), activation("square")], 2, 3)
    tab = lambda_table(spec.f1, 3, 4, spec.q_cap)
    with pytest.raises(TruncationError):
        mu_eigenvalue(spec, (5, 0), tab)


def test_mu_outer_degree_beyond_expansion():
    # an outer polynomial past Q_max is refused as the kernel is built,
    # before any table or eigenvalue can read the cut-off series
    tc = TruncationConfig(q_max=8, a_max=16)
    with pytest.raises(TruncationError):
        build_kernel([activation("exp"),
                      activation("poly", coeffs=[0.0] * 12 + [1.0])], 1, 3, tc)
    # so is a spec built directly with an outer polynomial past its g,
    # or with an f1 polynomial past its order
    with pytest.raises(TruncationError, match=r"truncation\.Q_max"):
        KernelSpec(f1=EXP, g=series_from([0.0] * 12 + [1.0], order=8), n=1,
                   d=3)
    with pytest.raises(TruncationError, match=r"truncation\.order"):
        KernelSpec(f1=series_from([0.0] * 12 + [1.0], order=8),
                   g=series_from([0.0, 1.0], order=8), n=1, d=3)


def test_profile_multiplicities():
    # d=3, degrees <= 1, n=2: multiplicities 1, 6, 9
    assert profile_multiplicity(canonical_profile((0, 0), 2), 3) == 1
    assert profile_multiplicity(canonical_profile((1, 0), 2), 3) == 6
    assert profile_multiplicity(canonical_profile((1, 1), 2), 3) == 9


def test_enumerate_spectrum_degree_one():
    spec = build_kernel([activation("exp"), activation("square")], 2, 3)
    tab = lambda_table(spec.f1, 3, 1, spec.q_cap)
    entries = enumerate_spectrum(spec, tab, 1)
    assert {e.profile for e in entries} == {(0, 0), (1, 0), (1, 1)}
    assert sum(e.multiplicity for e in entries) == 16
    mus = [e.mu for e in entries]
    assert mus == sorted(mus, reverse=True)


def test_expand_spectrum_unrolls_multiplicities():
    entries = [SpectrumEntry((1, 0), 2.0, 6), SpectrumEntry((0, 0), 1.0, 1),
               SpectrumEntry((1, 1), 0.5, 9)]
    assert expand_spectrum(entries).size == 16
    assert expand_spectrum(entries, limit=7).tolist() == [2.0] * 6 + [1.0]


def test_enumerate_prunes_interactions_at_d_star():
    # linear outer: no profile with two nonzero degrees survives
    spec = build_kernel([activation("exp"), activation("identity")], 2, 3)
    tab = lambda_table(spec.f1, 3, 6, spec.q_cap)
    entries = enumerate_spectrum(spec, tab, 6)
    assert all(sum(1 for k in e.profile if k) <= 1 for e in entries)


def test_fit_decay_exact_model_recovery():
    mus = [math.exp(-2.0 * m ** 0.25) for m in range(400)]
    entries = [SpectrumEntry((0,), mu, 1) for mu in mus]
    fit = fit_decay(entries)
    assert fit["exponent_p"] == pytest.approx(4.0, abs=1e-9)
    assert fit["gamma"] == pytest.approx(2.0, abs=1e-6)
    assert fit["goodness"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", np.arange(0.25, 8.25, 0.25))
def test_line_fit_matches_polyfit(p):
    # np.polyfit is a test-only oracle: slope within 1e-12 relative; the
    # intercept can sit near zero, so it is held to 1e-12 of the scale of y
    m = np.arange(1.0, 10 ** 5 + 1)
    x = m ** (1.0 / p)
    for y in (2.0 - 0.3 * m ** (1 / 3), 3.0 - 2.0 * m ** 0.25,
              -0.7 * m ** 0.5 + 0.01 * np.sin(m)):
        slope, intercept = spectrum._line_fit(x, y)
        want_slope, want_intercept = np.polyfit(x, y, 1)
        assert slope == pytest.approx(want_slope, rel=1e-12)
        assert abs(intercept - want_intercept) <= 1e-12 * np.abs(y).max()


def _mercer_entries():
    """The mercer-reconstruct benchmark kernel's spectrum (83,521
    eigenvalues; the nystrom kernel's has 20, too few for a fit)."""
    spec = build_kernel([activation("exp"), activation("exp")], 2, 3,
                        TruncationConfig(series_order=128, a_max=24, q_max=24))
    return enumerate_spectrum(spec, lambda_table(spec.f1, 3, 16, spec.q_cap),
                              16)


@pytest.mark.parametrize("name", ["decay", "decay-window", "mercer"])
def test_fit_decay_picks_the_polyfit_exponent(name, decay_kernel, monkeypatch):
    if name == "mercer":
        entries, window = _mercer_entries(), {}
    else:
        spec, table = decay_kernel
        entries = enumerate_spectrum(spec, table, 1200)
        # the benchmark config's fit_rank_range, as cmd_spectrum clips it
        window = {"m_min": 20, "m_max": 2401} if name == "decay-window" else {}
    got = fit_decay(entries, **window)
    monkeypatch.setattr(spectrum, "_line_fit",
                        lambda x, y: tuple(np.polyfit(x, y, 1)))
    want = fit_decay(entries, **window)
    assert got["exponent_p"] == want["exponent_p"]
    for key in ("gamma", "goodness", "counting_slope"):
        assert got[key] == pytest.approx(want[key], rel=1e-12), key


def test_fit_decay_needs_no_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK least squares called")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    fit = fit_decay(_mercer_entries())
    assert np.isfinite(fit["counting_slope"]) and fit["gamma"] > 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-5, 5) | st.floats(-2.0, 2.0), max_size=40))
def test_distinct_sorted_is_unique_of_sorted_input(values):
    a = np.sort(np.array(values, dtype=float))
    ints = a.astype(int)  # sorted still, with more repeats
    for x in (a, ints):
        got, want = spectrum._distinct_sorted(x), np.unique(x)
        # array_equal, not bytes: np.unique may keep 0.0 where -0.0 came first
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("name", ["decay", "mercer"])
def test_counting_slope_matches_unique_grid(name, decay_kernel, monkeypatch):
    # the rank grid and the eigenvalue grid are monotone, so dropping
    # consecutive repeats gives np.unique's grids, and the same slope
    if name == "mercer":
        entries = _mercer_entries()
    else:
        spec, table = decay_kernel
        entries = enumerate_spectrum(spec, table, 1200)
    got = spectrum.counting_slope(entries)
    monkeypatch.setattr(spectrum, "_distinct_sorted", np.unique)
    assert got == spectrum.counting_slope(entries)


def test_factorials_built_once_per_size_and_read_only():
    fact = spectrum._factorials(7)
    assert spectrum._factorials(7) is fact
    assert not fact.flags.writeable
    np.testing.assert_array_equal(fact, [math.factorial(a) for a in range(7)])


def test_fit_decay_guards():
    few = [SpectrumEntry((0,), 1.0, 1)] * 50
    with pytest.raises(FitError):
        fit_decay(few)
    flat = [SpectrumEntry((0,), 1.0, 1)] * 200
    with pytest.raises(FitError):
        fit_decay(flat)


def test_mercer_reconstruction_error_shrinks_with_k_max():
    spec = build_kernel([activation("exp"), activation("identity")], 1, 3)
    tab = lambda_table(spec.f1, 3, 20, spec.q_cap)
    x = sample_uniform(1, 3, 0)
    y = sample_uniform(1, 3, 1)
    direct = eval_kernel(spec, x, y)
    errs = []
    for km in (5, 10, 20):
        got = SpectralExpansion(spec, tab, km).reconstruct([x], [y])[0]
        errs.append(abs(direct - got))
    assert errs[0] >= errs[1] >= errs[2]
    assert errs[2] / spec.diag_value() <= 1e-6


def test_mercer_reconstruction_diag_n2():
    spec = build_kernel([activation("exp"), activation("square")], 2, 3)
    tab = lambda_table(spec.f1, 3, 12, spec.q_cap)
    x = sample_uniform(2, 3, 4)
    got = SpectralExpansion(spec, tab, 12).reconstruct([x], [x])[0]
    assert got == pytest.approx(spec.diag_value(), abs=1e-5 * spec.diag_value())


def test_reconstruction_covers_integral_activations():
    # erf-sigmoid / smooth-hinge majorants run through the whole spectral
    # pipeline, not just the exp family
    # these majorants decay slower than exp's, so the degree cutoff sits at 20
    for inner in ("erf_sigmoid", "smooth_hinge"):
        spec = build_kernel([activation(inner), activation("square")], 2, 3,
                            TruncationConfig(series_order=96))
        tab = lambda_table(spec.f1, 3, 20, spec.q_cap)
        assert tab.kappa == pytest.approx(2.0, rel=1e-9)
        expansion = SpectralExpansion(spec, tab, 20)
        scale = spec.diag_value()
        xs = [sample_uniform(2, 3, (31, i)) for i in range(5)]
        ys = [sample_uniform(2, 3, (32, i)) for i in range(5)]
        for x, y, got in zip(xs, ys, expansion.reconstruct(xs, ys)):
            err = abs(eval_kernel(spec, x, y) - got)
            assert err <= 1e-5 * scale


def test_spectral_expansion_multiple_pairs():
    spec = build_kernel([activation("exp"), activation("square")], 3, 2)
    tab = lambda_table(spec.f1, 2, 12, spec.q_cap)
    expansion = SpectralExpansion(spec, tab, 12)
    scale = spec.diag_value()
    xs = [sample_uniform(3, 2, (7, i)) for i in range(10)]
    ys = [sample_uniform(3, 2, (8, i)) for i in range(10)]
    for x, y, got in zip(xs, ys, expansion.reconstruct(xs, ys)):
        err = abs(eval_kernel(spec, x, y) - got)
        assert err <= 1e-5 * scale


# (outer layers, n, d, k_max): D = 1, 2, 4 and inf; D < n in the first two
# rows, where profiles with more than D nonzero degrees must drop out exactly
MERCER_ORACLE_CASES = [
    (["identity"], 3, 3, 6),
    (["square"], 4, 3, 5),
    (["square"], 2, 2, 8),
    (["square", "square"], 4, 2, 4),
    (["exp"], 3, 3, 5),
    (["exp"], 1, 4, 10),
]


@pytest.mark.parametrize("outer, n, d, k_max", MERCER_ORACLE_CASES)
def test_reconstruct_matches_per_profile_oracle(outer, n, d, k_max):
    spec = build_kernel([activation("exp")] + [activation(a) for a in outer],
                        n, d)
    tab = lambda_table(spec.f1, d, k_max, spec.q_cap)
    xs = [sample_uniform(n, d, (61, i)) for i in range(3)]
    ys = [sample_uniform(n, d, (62, i)) for i in range(3)]
    got = SpectralExpansion(spec, tab, k_max).reconstruct(xs, ys)
    want = [brute_force_mercer(spec, tab, k_max, x, y) for x, y in zip(xs, ys)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_reconstruct_refuses_short_table_and_outer_series():
    spec = build_kernel([activation("exp"), activation("square")], 2, 3)
    with pytest.raises(TruncationError):
        SpectralExpansion(spec, lambda_table(spec.f1, 3, 4, 1), 4)
    poly6 = activation("poly", coeffs=[0.0] * 6 + [1.0])
    with pytest.raises(TruncationError):  # refused by build_kernel
        build_kernel([activation("exp"), poly6], 2, 3,
                     TruncationConfig(q_max=4))


def test_reconstruct_refuses_batches_outside_the_kernel_layout():
    # the layout check every batch consumer shares (kernel._batch)
    spec = build_kernel([activation("exp"), activation("square")], 2, 3)
    expansion = SpectralExpansion(spec, lambda_table(spec.f1, 3, 4,
                                                     spec.q_cap), 4)
    xs = sample_uniform_batch(3, 2, 3, 0)
    for a, b in [(xs, xs[:2]),  # counts differ
                 (xs[0], xs[0]),  # one image, no batch
                 (xs[:, :1], xs[:, :1]),  # one patch of two
                 (np.zeros((3, 2, 4)), np.zeros((3, 2, 4)))]:  # d = 4
        with pytest.raises(StructuralError):
            expansion.reconstruct(a, b)
        with pytest.raises(StructuralError):
            expansion.reconstruct(b, a)


def test_eigenvalue_windows_shape():
    r = 0.5
    f1 = geometric_series(r, 200)
    tab = lambda_table(f1, 3, 50, 4)
    win = eigenvalue_windows(tab, r, alphas=(1, 2, 3, 4), m_max=50)
    for alpha, w in win.items():
        assert np.all(w["upper_seq"] > 0) and np.all(w["lower_seq"] > 0)
        assert math.isfinite(w["upper_window_ratio"])
        # upper sequence must stay bounded above: no growth from m=25 to 50
        assert w["upper_seq"][50] <= 10.0 * w["upper_seq"][25]
        # lower sequence must stay bounded below: no collapse
        assert w["lower_seq"][50] >= w["lower_seq"][25] / 10.0
