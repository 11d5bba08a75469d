import math

import numpy as np
import pytest

from scipy.special import gammaln, roots_jacobi

from harmonica.activations import activation, majorant_series
from harmonica.harmonics import (_derivative_coeffs, _jacobi_nodes,
                                 funk_hecke_eigenvalue, harmonic_dim,
                                 sphere_surface, zonal_features,
                                 zonal_poly_table)
from harmonica.image import sample_uniform
from harmonica.taylor import exp_series, geometric_series, series_from

from conftest import zonal_oracle
from helpers import activation_with, zonal_orthogonality_error


def test_harmonic_dim_values():
    assert harmonic_dim(0, 5) == 1
    assert harmonic_dim(1, 4) == 4
    # binomial formula at m=2, d=3 equals the classical dimension on S^2
    assert harmonic_dim(2, 3) == math.comb(4, 2) - math.comb(2, 0) == 5


def test_harmonic_dim_gauss_sum():
    # sum_{m<=M} dim = C(d-1+M, M) + C(d-2+M, M-1)
    for d in range(2, 7):
        for M in (0, 1, 5, 30):
            total = sum(harmonic_dim(m, d) for m in range(M + 1))
            want = math.comb(d - 1 + M, M) + (math.comb(d - 2 + M, M - 1)
                                              if M >= 1 else 0)
            assert total == want


def test_sphere_surface():
    assert sphere_surface(2) == pytest.approx(2 * math.pi)
    assert sphere_surface(3) == pytest.approx(4 * math.pi)
    assert sphere_surface(1) == pytest.approx(2.0)


def _recurrence_value(k, d, t):
    return float(zonal_poly_table(k, d, np.asarray([t]))[k, 0])


def test_zonal_poly_normalization_and_values():
    # the library's recurrence and the scipy oracle the other tests use
    for zonal in (_recurrence_value, zonal_oracle):
        for d in (2, 3, 5):
            assert zonal(0, d, 0.3) == 1.0
            assert zonal(2, d, 1.0) == pytest.approx(1.0)
        # Legendre P2(t) = (3t^2 - 1)/2 on S^2
        assert zonal(2, 3, 0.0) == pytest.approx(-0.5)
        # Chebyshev on the circle: P_k(cos a) = cos(k a)
        for k in range(6):
            assert zonal(k, 2, math.cos(0.7)) == pytest.approx(
                math.cos(k * 0.7))


@pytest.mark.parametrize("d", [2, 3, 4, 9])
def test_zonal_poly_table_matches_scipy_oracle(d):
    t = np.linspace(-1.0, 1.0, 201)
    want = np.array([zonal_oracle(k, d, t) for k in range(25)])
    np.testing.assert_allclose(zonal_poly_table(24, d, t), want,
                               rtol=0.0, atol=1e-13)


def test_zonal_poly_bounded(rng):
    t = np.linspace(-1, 1, 501)
    for d in (2, 3, 4, 6):
        tab = zonal_poly_table(15, d, t)
        assert np.max(np.abs(tab)) <= 1.0 + 1e-12


def test_zonal_orthogonality():
    for d in (2, 3, 4):
        for k in range(6):
            for kp in range(k + 1, 7):
                assert abs(zonal_orthogonality_error(k, kp, d)) < 1e-10


def test_zonal_pair_sum_values():
    # the addition-theorem aggregate sum_l Y_k^l(x) Y_k^l(y) at <x, y>
    x = sample_uniform(1, 3, 0)[0]
    y = sample_uniform(1, 3, 1)[0]
    assert zonal_features(0, 3, np.dot(x, y))[0] == pytest.approx(
        1.0 / (4 * math.pi))
    assert zonal_features(1, 3, np.dot(x, x))[1] == pytest.approx(
        3.0 / (4 * math.pi))


def test_zonal_pair_sum_reproducing_monte_carlo():
    # int Z_k(x,y) Z_k'(y,z) dsigma(y) = delta_{kk'} Z_k(x,z)
    d = 3
    rng = np.random.default_rng(321)
    ys = rng.standard_normal((100_000, d))
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    x = sample_uniform(1, d, 5)[0]
    z = x  # evaluate at the maximum of the reproducing identity
    surf = sphere_surface(d)
    tab_x = zonal_poly_table(3, d, ys @ x)
    tab_z = zonal_poly_table(3, d, ys @ z)
    dims = [harmonic_dim(k, d) for k in range(4)]
    for k in (1, 2, 3):
        zx = dims[k] / surf * tab_x[k]
        for kp in (1, 2, 3):
            zz = dims[kp] / surf * tab_z[kp]
            integral = surf * np.mean(zx * zz)
            want = zonal_features(k, d, np.dot(x, z))[k] if k == kp else 0.0
            scale = zonal_features(k, d, np.dot(x, x))[k]
            assert integral == pytest.approx(want, abs=0.05 * scale)


def test_funk_hecke_constant_kernel():
    one = series_from([1.0], order=8, nonneg=True)
    assert funk_hecke_eigenvalue(one, 0, 3) == pytest.approx(4 * math.pi)
    for k in (1, 2, 5):
        assert abs(funk_hecke_eigenvalue(one, k, 3)) < 1e-10


def test_funk_hecke_linear_kernel():
    lin = series_from([0.0, 1.0], order=8, nonneg=True)
    # 2 pi * int t^2 dt over [-1,1] = 4 pi / 3
    assert funk_hecke_eigenvalue(lin, 1, 3) == pytest.approx(4 * math.pi / 3)


def test_funk_hecke_monomial_oracle():
    # independent analytic values: |S^0| * int t^m T_k(t)/sqrt(1-t^2)
    # for d=2 via the cosine substitution: int cos^m(a) cos(ka) da
    m, k = 5, 3
    mono = series_from([0.0] * m + [1.0], nonneg=True)
    a = np.linspace(0.0, math.pi, 200_001)
    integrand = np.cos(a) ** m * np.cos(k * a)
    want = 2.0 * np.trapezoid(integrand, a)  # |S^0| = 2
    assert funk_hecke_eigenvalue(mono, k, 2) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_single_sphere_mercer_consistency(d):
    # sum_k lambda_k (dim_k/|S|) P_k(t) converges to g(t): the n=1 spectral
    # identity with quadrature eigenvalues
    g = exp_series(64)
    surf = sphere_surface(d)
    lams = [funk_hecke_eigenvalue(g, k, d) for k in range(31)]
    t = np.linspace(-1.0, 1.0, 41)
    tab = zonal_poly_table(30, d, t)
    total = np.zeros_like(t)
    for k in range(31):
        total += lams[k] * harmonic_dim(k, d) / surf * tab[k]
    np.testing.assert_allclose(total, np.exp(t), rtol=0, atol=1e-6)


def test_funk_hecke_geometric_series():
    # closed-form circle eigenvalues of 1/(1-r t): 2 pi rho^k / sqrt(1-r^2)
    r = 0.5
    g = geometric_series(r, 200)
    rho = r / (1.0 + math.sqrt(1 - r * r))
    for k in (0, 1, 3, 6):
        want = 2 * math.pi * rho ** k / math.sqrt(1 - r * r)
        assert funk_hecke_eigenvalue(g, k, 2) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("a", [-0.5, 0.0, 0.5, 1.5, 3.0, 10.5, 30.0, 60.5])
def test_golub_welsch_nodes_match_scipy(a):
    for n in (1, 2, 3, 5, 8, 20, 40):
        x, w = _jacobi_nodes(n, a)
        x_ref, w_ref = roots_jacobi(n, a, a)
        np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(w, w_ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", ["exp", "erf_sigmoid", "geometric"])
def test_derivative_coeffs_match_scipy_gammaln(kind):
    g = majorant_series(activation_with(kind, ratio=0.9), 128)
    b = g.asarray()
    for k in (0, 1, 5, 40, 100):
        j = np.arange(b.size - k, dtype=float)
        want = b[k:] * np.exp(gammaln(j + k + 1.0) - gammaln(j + 1.0))
        np.testing.assert_allclose(_derivative_coeffs(g, k), want,
                                   rtol=1e-12, atol=0.0)
    assert np.array_equal(_derivative_coeffs(g, b.size), np.zeros(1))
