"""Shared oracles used across test modules.

These deliberately avoid the library code paths they check: convolution by
explicit double loop, derivatives by central finite differences, the Mercer
sum profile by profile with scalar zonal polynomials.
"""

import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import settings

from harmonica.harmonics import harmonic_dim, sphere_surface, zonal_poly
from harmonica.spectrum import mu_eigenvalue

# HYPOTHESIS_PROFILE=ci (set by the CI workflow) runs the same examples on
# every push
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def brute_force_product(a, b, order):
    """Discrete convolution by nested loops; independent of taylor.cauchy_product."""
    out = [0.0] * (order + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= order:
                out[i + j] += ai * bj
    return out


def brute_force_power(a, alpha, order):
    out = [1.0] + [0.0] * order
    for _ in range(alpha):
        out = brute_force_product(out, a, order)
    return out


def scalar_zonal_feature(k, d, x, y):
    """(N(d,k) / |S^{d-1}|) P_{k,d}(<x, y>) from the scalar zonal_poly."""
    t = min(1.0, max(-1.0, float(np.dot(x, y))))
    return harmonic_dim(k, d) / sphere_surface(d) * zonal_poly(k, d, t)


def brute_force_mercer(spec, table, k_max, x, y):
    """kappa^n sum_k mu(k) prod_i Z[k_i, i], one profile at a time.

    Supports of at most min(D, n) patches carry the nonzero degrees; every
    degree assignment on a support (itertools.product) gets its own
    mu_eigenvalue call. The other patches sit at degree 0.
    """
    n = spec.n
    z = [[scalar_zonal_feature(k, spec.d, x.patches[i], y.patches[i])
          for i in range(n)] for k in range(k_max + 1)]
    total = 0.0
    for w in range(min(spec.d_star, n) + 1):
        for support in itertools.combinations(range(n), w):
            base = math.prod(z[0][j] for j in range(n) if j not in support)
            for ks in itertools.product(range(1, k_max + 1), repeat=w):
                mu = mu_eigenvalue(spec, ks, table)
                if mu == 0.0:
                    continue
                term = mu * base
                for pos, k in zip(support, ks):
                    term *= z[k][pos]
                total += term
    return total * table.kappa ** n


def fd_stencil(m, npts, h):
    """Central finite-difference weights for the m-th derivative at 0."""
    assert npts % 2 == 1 and npts > m
    offsets = np.arange(npts) - npts // 2
    A = np.vander(offsets * h, npts, increasing=True).T
    rhs = np.zeros(npts)
    rhs[m] = math.factorial(m)
    return offsets * h, np.linalg.solve(A, rhs)


def fd_derivative(f, m, h=0.05, npts=11, richardson=True):
    """m-th derivative of f at 0 by high-order central differences.

    One Richardson step on the leading h^(npts-m) error term; good to ~1e-9
    relative for analytic f and m <= 4.
    """
    def estimate(step):
        xs, w = fd_stencil(m, npts, step)
        return float(np.dot(w, [f(x) for x in xs]))

    d1 = estimate(h)
    if not richardson:
        return d1
    d2 = estimate(h / 2.0)
    p = npts - m if (npts - m) % 2 == 0 else npts - m - 1  # symmetric stencil order
    return (2 ** p * d2 - d1) / (2 ** p - 1)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
