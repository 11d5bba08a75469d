import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmonica.errors import ConvergenceError, TruncationCapError
from harmonica.taylor import (DEFAULT_L_MAX, CoeffSeries, cauchy_product,
                              compose, composition_tail, eval_series,
                              exp_series, geometric_series, identity_series,
                              power, power_table, series_from)

from conftest import brute_force_product, brute_force_power, fd_derivative


def test_cauchy_product_binomial():
    a = series_from([1.0, 1.0], order=2)
    assert cauchy_product(a, a, 2).coeffs == (1.0, 2.0, 1.0)


def test_cauchy_product_exp_squared_matches_oracle():
    e = exp_series(6)
    got = cauchy_product(e, e, 6)
    oracle = brute_force_product(e.coeffs, e.coeffs, 6)
    # frozen closed form: coefficients of e^{2x} are 2^m / m!
    frozen = [2.0 ** m / math.factorial(m) for m in range(7)]
    np.testing.assert_allclose(got.coeffs, oracle, rtol=1e-15)
    np.testing.assert_allclose(got.coeffs, frozen, rtol=1e-15)


def test_cauchy_product_identity():
    f = series_from([2.0, 3.0, 0.5], order=4)
    one = series_from([1.0], order=4)
    assert cauchy_product(f, one, 4).coeffs == f.truncated(4).coeffs


def test_power_zero_and_one():
    a = geometric_series(0.5, 8)
    assert power(a, 0, 8).coeffs == (1.0,) + (0.0,) * 8
    assert power(a, 1, 8).coeffs == a.coeffs


def test_power_geometric_square():
    # (sum r^m x^m)^2 has coefficients (m+1) r^m
    a = geometric_series(0.5, 12)
    got = power(a, 2, 12)
    want = [(m + 1) * 0.5 ** m for m in range(13)]
    np.testing.assert_allclose(got.coeffs, want, rtol=1e-15)
    np.testing.assert_allclose(got.coeffs,
                               brute_force_power(a.coeffs, 2, 12), rtol=1e-15)


def test_compose_identity_outer():
    inner = geometric_series(0.3, 6)
    got = compose(identity_series(6), inner, 6)
    assert got.coeffs == inner.coeffs


def test_compose_square_outer():
    outer = series_from([0.0, 0.0, 1.0])
    inner = series_from([1.0, 1.0], order=2)
    assert compose(outer, inner, 2).coeffs == (1.0, 2.0, 1.0)


def test_compose_exp_exp_against_finite_differences():
    # coefficients of e^{e^x}; the oracle differentiates the scalar function
    got = compose(exp_series(64), exp_series(64), 4)

    def f(x):
        return math.exp(math.exp(x))

    for m in range(5):
        oracle = fd_derivative(f, m) / math.factorial(m)
        assert got.coeffs[m] == pytest.approx(oracle, rel=1e-8)


def test_compose_reports_divergence():
    # outer ~ geometric with ratio 0.9 evaluated at inner(1) = e > 1/0.9
    outer = geometric_series(0.9, 64)
    inner = exp_series(64)
    with pytest.raises(ConvergenceError):
        compose(outer, inner, 8)
    assert composition_tail(outer, inner.truncated(8), DEFAULT_L_MAX) == math.inf


def test_eval_series_examples():
    assert eval_series(series_from([1.0, 2.0, 1.0]), 1.0) == 4.0
    assert eval_series(exp_series(20), 1.0) == pytest.approx(math.e, abs=1e-12)
    a = series_from([7.0, -1.0, 3.0])
    assert eval_series(a, 0.0) == 7.0


def test_eval_series_vectorized():
    a = series_from([1.0, 2.0, 1.0])
    np.testing.assert_allclose(eval_series(a, np.array([0.0, 1.0, -1.0])),
                               [1.0, 4.0, 0.0])


def test_eval_series_padding_bitwise_exact(rng):
    # reference: full-length Horner over every padded coefficient
    t = np.clip(rng.standard_normal(200), -1.0, 1.0)
    for deg in (0, 1, 2, 5):
        c = list(rng.uniform(0.0, 2.0, deg + 1))
        exact, padded = series_from(c), series_from(c, order=64)
        want = np.polynomial.polynomial.polyval(t, padded.asarray())
        assert np.array_equal(eval_series(padded, t), want)
        assert np.array_equal(eval_series(exact, t), want)
        for v in t[:20]:
            acc = 0.0
            for coeff in reversed(padded.coeffs):
                acc = acc * v + coeff
            assert eval_series(padded, float(v)) == acc
    zero = series_from([0.0], order=8)
    assert np.array_equal(eval_series(zero, t), np.zeros_like(t))


def test_commutativity_exact(rng):
    for _ in range(20):
        a = series_from(rng.uniform(0, 2, size=9))
        b = series_from(rng.uniform(0, 2, size=7))
        ab = cauchy_product(a, b, 10)
        ba = cauchy_product(b, a, 10)
        assert ab.coeffs == ba.coeffs  # bitwise, thanks to fsum


def test_associativity_exact_on_integer_series():
    a = series_from([1, 2, 3], order=8)
    b = series_from([0, 1, 1, 4], order=8)
    c = series_from([2, 0, 5], order=8)
    left = cauchy_product(cauchy_product(a, b, 8), c, 8)
    right = cauchy_product(a, cauchy_product(b, c, 8), 8)
    assert left.coeffs == right.coeffs


def test_associativity_float(rng):
    a = series_from(rng.uniform(0, 1, size=6))
    b = series_from(rng.uniform(0, 1, size=6))
    c = series_from(rng.uniform(0, 1, size=6))
    left = cauchy_product(cauchy_product(a, b, 8), c, 8)
    right = cauchy_product(a, cauchy_product(b, c, 8), 8)
    np.testing.assert_allclose(left.coeffs, right.coeffs, rtol=1e-14)


def test_power_addition_law():
    a = geometric_series(0.4, 16)
    for alpha, beta in [(1, 1), (2, 1), (2, 3), (0, 4)]:
        lhs = power(a, alpha + beta, 16)
        rhs = cauchy_product(power(a, alpha, 16), power(a, beta, 16), 16)
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-14)


def test_nonneg_propagation(rng):
    a = series_from(rng.uniform(0, 1, size=8), nonneg=True)
    b = series_from(rng.uniform(0, 1, size=8), nonneg=True)
    prod = cauchy_product(a, b, 10)
    assert prod.nonneg and all(v >= 0.0 for v in prod.coeffs)
    pw = power(a, 3, 10)
    assert pw.nonneg and all(v >= 0.0 for v in pw.coeffs)


def test_eval_product_consistency(rng):
    a = series_from(rng.uniform(0, 1, size=33), nonneg=True)
    b = series_from(rng.uniform(0, 1, size=33), nonneg=True)
    prod = cauchy_product(a, b, 32)
    for t in (0.1, 0.25, 0.5, -0.4):
        direct = eval_series(a, t) * eval_series(b, t)
        viaprod = eval_series(prod, t)
        # positive-coefficient tail at |t| <= 1/2 of the (unit) radius
        tail = sum(a.coeffs) * sum(b.coeffs) * abs(t) ** 33 / (1 - abs(t))
        assert abs(direct - viaprod) <= tail + 1e-12


@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(st.floats(min_value=0.0, max_value=1e3,
                                 allow_subnormal=False),
                       min_size=1, max_size=24),
       order=st.integers(min_value=0, max_value=30),
       alpha=st.integers(min_value=0, max_value=8))
def test_power_table_bitwise_equals_power(coeffs, order, alpha):
    a = series_from(coeffs, nonneg=True)
    got = power_table(a, order)(alpha)
    want = power(a, alpha, order)
    assert got.coeffs == want.coeffs
    assert got.nonneg == want.nonneg


@settings(max_examples=60, deadline=None)
@given(outer=st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=1,
                      max_size=4),
       r=st.floats(min_value=0.0, max_value=0.5),
       t=st.floats(min_value=-0.25, max_value=0.25))
def test_compose_matches_nested_evaluation(outer, r, t):
    # inner 1/(1 - r x) cut at degree 40, |r t| <= 1/8: with outer degree
    # <= 3 every dropped term is below C(43, 2) (r t)^41 < 1e-33
    # two trailing zeros mark the outer series as a finite polynomial
    outer = series_from(outer + [0.0, 0.0], nonneg=True)
    inner = series_from([r ** m for m in range(41)], nonneg=True)
    composed = compose(outer, inner, 40)
    want = eval_series(outer, eval_series(inner, t))
    scale = eval_series(composed, abs(t))
    assert abs(eval_series(composed, t) - want) <= 1e-13 * scale


def test_geometric_power_coefficient_window():
    # power(b, alpha)[m] / ((m+1)^(alpha-1) r^m) stays in a ratio<=10 window
    r = 0.5
    a = geometric_series(r, 50)
    for alpha in (1, 2, 3, 4):
        pw = power(a, alpha, 50).asarray()
        m = np.arange(51)
        normalized = pw / ((m + 1.0) ** (alpha - 1) * r ** m)
        assert normalized.max() / normalized.min() <= 10.0


def test_order_cap():
    with pytest.raises(TruncationCapError):
        series_from([0.0] * 5000)
    a = series_from([1.0, 1.0])
    with pytest.raises(TruncationCapError):
        cauchy_product(a, a, 5000)


def test_series_validation():
    with pytest.raises(ValueError):
        series_from([1.0, float("nan")])
    with pytest.raises(ValueError):
        CoeffSeries((1.0, -2.0), nonneg=True)
