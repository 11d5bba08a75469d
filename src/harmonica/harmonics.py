"""Spherical-harmonic combinatorics and the quadrature eigenvalue test oracle.

Works throughout with the *unnormalized* surface measure on S^{d-1} and with
zonal polynomials P_{k,d} normalized so P_{k,d}(1) = 1 (Chebyshev for d=2,
Legendre for d=3). Explicit orthonormal bases are never constructed; the
addition theorem gives every aggregate the spectrum code needs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureError
from .taylor import CoeffSeries


def harmonic_dim(m: int, d: int) -> int:
    """Dimension of the space of degree-m spherical harmonics on S^{d-1}."""
    if m < 0 or d < 2:
        raise ValueError("need m >= 0 and d >= 2")
    if m == 0:
        return 1
    if m == 1:
        return d
    return math.comb(d - 1 + m, m) - math.comb(d - 3 + m, m - 2)


def sphere_surface(d: int) -> float:
    """Surface area |S^{d-1}| = 2 pi^{d/2} / Gamma(d/2); d=1 gives the
    two-point sphere."""
    if d < 1:
        raise ValueError("need d >= 1")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def zonal_poly(k: int, d: int, t: float) -> float:
    """Normalized ultraspherical polynomial P_{k,d}(t), P_{k,d}(1) = 1.

    Three-term recurrence
        (k + d - 3) P_k = (2k + d - 4) t P_{k-1} - (k - 1) P_{k-2}
    with P_0 = 1, P_1 = t.
    """
    if abs(t) > 1.0 + 1e-12:
        raise ValueError(f"zonal argument {t} outside [-1, 1]")
    t = min(1.0, max(-1.0, t))
    return float(zonal_poly_table(k, d, np.asarray([t]))[k, 0])


def zonal_poly_table(k_max: int, d: int, t: np.ndarray) -> np.ndarray:
    """P_{k,d}(t) for all k <= k_max; shape (k_max+1, len(t))."""
    if k_max < 0 or d < 2:
        raise ValueError("need k_max >= 0 and d >= 2")
    t = np.asarray(t, dtype=float)
    out = np.empty((k_max + 1, t.size))
    out[0] = 1.0
    if k_max >= 1:
        out[1] = t
    for k in range(2, k_max + 1):
        out[k] = ((2 * k + d - 4) * t * out[k - 1] - (k - 1) * out[k - 2]) \
            / (k + d - 3)
    return out


def zonal_features(k_max: int, d: int, t) -> np.ndarray:
    """Addition-theorem features (N(d,k) / |S^{d-1}|) P_{k,d}(t), k <= k_max.

    By the addition theorem entry k is sum_l Y_k^l(x) Y_k^l(y) at
    t = <x, y>. ``t`` is any array of inner products (clipped to [-1, 1]);
    the result has shape (k_max+1, *t.shape).
    """
    t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    P = zonal_poly_table(k_max, d, t.reshape(-1)).reshape(k_max + 1, *t.shape)
    dims = np.array([harmonic_dim(k, d) for k in range(k_max + 1)], dtype=float)
    return (dims / sphere_surface(d)).reshape(-1, *(1,) * t.ndim) * P


def zonal_pair_sum(k: int, d: int, x: np.ndarray, y: np.ndarray) -> float:
    """Addition-theorem aggregate sum_l Y_k^l(x) Y_k^l(y)
    = (alpha_{k,d} / |S^{d-1}|) P_{k,d}(<x, y>)."""
    return float(zonal_features(k, d, np.dot(x, y))[k])


@lru_cache(maxsize=256)
def _jacobi_nodes(n: int, exponent: float):
    from scipy.special import roots_jacobi  # test oracle only: keep off start-up
    x, w = roots_jacobi(n, exponent, exponent)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _derivative_coeffs(g: CoeffSeries, k: int) -> np.ndarray:
    """Coefficients of g^{(k)}: b_{j+k} (j+k)!/j!, built through log-gamma so
    tiny coefficients against huge factorial ratios stay in range."""
    from scipy.special import gammaln
    b = g.asarray()
    if k >= b.size:
        return np.zeros(1)
    bk = b[k:]
    j = np.arange(bk.size, dtype=float)
    return bk * np.exp(gammaln(j + k + 1.0) - gammaln(j + 1.0))


def _smooth_funk_hecke_integral(gk: np.ndarray, k: int, d: int,
                                n_nodes: int) -> tuple:
    t, w = _jacobi_nodes(n_nodes, k + (d - 3) / 2.0)
    vals = np.polynomial.polynomial.polyval(t, gk)
    return float(np.dot(w, vals)), float(np.dot(w, np.abs(vals)))


def funk_hecke_eigenvalue(g: CoeffSeries, k: int, d: int,
                          rtol: float = 1e-9) -> float:
    """Eigenvalue of the dot-product kernel g(<x,y>) on degree-k harmonics.

    Funk-Hecke gives |S^{d-2}| * int g(t) P_{k,d}(t) (1-t^2)^{(d-3)/2} dt
    against the unnormalized measure on S^{d-1}. Evaluated after k
    integrations by parts (Rodrigues form),

        |S^{d-2}| * Gamma(a+1) / (2^k Gamma(k+a+1))
            * int g^{(k)}(t) (1-t^2)^{k+a} dt,      a = (d-3)/2,

    whose integrand is sign-definite for the majorant families here, so the
    tiny high-degree eigenvalues keep full relative precision (the direct
    oscillatory product loses them to cancellation). Gauss-Jacobi nodes make
    the rule exact for the truncated polynomial g; a refinement cross-check
    guards that claim.

    This is a test oracle: ``spectrum.lambda_table`` never calls it, since
    the Funk-Hecke / closed-form ratio is the exact ``spectrum.KAPPA``.
    """
    if d < 2 or k < 0:
        raise ValueError("need d >= 2 and k >= 0")
    gk = _derivative_coeffs(g, k)
    if not np.any(gk):
        return 0.0  # g has no degree >= k content: exact orthogonality zero
    n_nodes = (gk.size - 1) // 2 + 4
    v1, _ = _smooth_funk_hecke_integral(gk, k, d, n_nodes)
    v2, mass = _smooth_funk_hecke_integral(gk, k, d, n_nodes + 8)
    if abs(v1 - v2) > rtol * max(abs(v1), abs(v2)) + 1e-14 * mass:
        raise QuadratureError(
            f"quadrature refinements disagree: {v1!r} vs {v2!r} at k={k}, d={d}")
    a = (d - 3) / 2.0
    log_c = math.lgamma(a + 1.0) - k * math.log(2.0) - math.lgamma(k + a + 1.0)
    return sphere_surface(d - 1) * math.exp(log_c) * v2


def zonal_orthogonality_error(k: int, kp: int, d: int) -> float:
    """Weighted inner product of P_{k,d} and P_{k',d}; ~0 for k != k'."""
    n = (k + kp) // 2 + 6
    t, w = _jacobi_nodes(n, (d - 3) / 2.0)
    tab = zonal_poly_table(max(k, kp), d, t)
    return float(np.dot(w, tab[k] * tab[kp]))
