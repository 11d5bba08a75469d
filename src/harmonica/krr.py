"""Regularized least-squares in the multi-layer RKHS.

Dual solve of (G + lambda l I) c = y, the regularization schedules of the
source-condition regimes, Nystrom eigenvalue estimates, and learning-curve
experiments. Fits for different sizes/seeds are independent; RNG streams
derive from (seed, size) pairs so runs reproduce regardless of scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError
# zonal_poly_table is unused here; perfbench/layers.py wraps the name on
# this module
from .harmonics import sphere_surface, zonal_features, zonal_poly_table
from .image import PatchedImage, sample_uniform_batch, stack_patches
from .kernel import KernelSpec, cross_gram, gram
from .spectrum import LambdaTable, canonical_profile, mu_eigenvalue


# scipy.linalg costs ~0.3 s to import, so it loads at the first solve rather
# than at start-up; callers (and tracers) use these module-level names
def cho_factor(*args, **kwargs):
    """scipy.linalg.cho_factor."""
    from scipy.linalg import cho_factor as impl
    return impl(*args, **kwargs)


def cho_solve(*args, **kwargs):
    """scipy.linalg.cho_solve."""
    from scipy.linalg import cho_solve as impl
    return impl(*args, **kwargs)


def eigvalsh(*args, **kwargs):
    """scipy.linalg.eigvalsh."""
    from scipy.linalg import eigvalsh as impl
    return impl(*args, **kwargs)


@dataclass(frozen=True)
class Dataset:
    xs: tuple
    ys: np.ndarray

    def __post_init__(self):
        ys = np.asarray(self.ys, dtype=float)
        if len(self.xs) != ys.size or ys.size < 1:
            raise ValueError("need matching, nonempty xs and ys")
        if not np.all(np.isfinite(ys)):
            raise ValueError("labels must be finite")
        ys.flags.writeable = False
        object.__setattr__(self, "xs", tuple(self.xs))
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class FitResult:
    """Dual coefficients of one RLS solve plus the inputs they refer to.

    ``fitted`` holds the fit's values at those inputs, G c, taken from the
    Gram the solve already built.
    """

    coeffs: np.ndarray
    lam: float
    xs: tuple
    fitted: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        f = np.asarray(self.fitted, dtype=float)
        if c.size != len(self.xs) or f.size != len(self.xs):
            raise ValueError("coefficient and fitted counts must match "
                             "training size")
        c.flags.writeable = False
        f.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "fitted", f)


def rls_fit(spec: KernelSpec, data: Dataset, lam: float) -> FitResult:
    """Solve (G + lambda l I) c = y by Cholesky, with one jitter retry."""
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    ell = len(data)
    G = gram(spec, list(data.xs))
    A = G + lam * ell * np.eye(ell)
    try:
        c = cho_solve(cho_factor(A, lower=True), data.ys)
    except np.linalg.LinAlgError:  # the class scipy.linalg raises
        jitter = 1e-12 * np.trace(G) / ell
        try:
            c = cho_solve(cho_factor(A + jitter * np.eye(ell), lower=True),
                          data.ys)
        except np.linalg.LinAlgError as exc:
            cond = float(np.linalg.cond(A))
            raise SolverError(
                f"Gram factorization failed even with jitter {jitter:.3e} "
                f"(cond ~ {cond:.3e})", condition=cond) from exc
    return FitResult(coeffs=c, lam=lam, xs=data.xs, fitted=G @ c)


def predict(spec: KernelSpec, fit: FitResult, xs) -> np.ndarray:
    """f(x) = sum_i c_i K(x, x_i) for each query point."""
    return cross_gram(spec, list(xs), list(fit.xs)) @ fit.coeffs


def mse(pred: np.ndarray, truth: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    return float(np.mean((pred - truth) ** 2))


def rls_objective(spec: KernelSpec, data: Dataset, fit: FitResult) -> float:
    """(1/l) sum residual^2 + lambda c^T G c at the fitted coefficients."""
    G = gram(spec, list(data.xs))
    resid = data.ys - G @ fit.coeffs
    return float(np.mean(resid ** 2)
                 + fit.lam * fit.coeffs @ G @ fit.coeffs)


@dataclass(frozen=True)
class Schedule:
    """Source-condition exponent beta in (0, 2]; mu_exp only for beta = 1."""

    beta: float
    mu_exp: float = field(default=0.0)

    def __post_init__(self):
        if not 0.0 < self.beta <= 2.0:
            raise ValueError("beta must lie in (0, 2]")

    def check(self, d: int, d_star: int) -> None:
        """Refuse beta = 1 unless mu_exp > (d-1) d*."""
        if self.beta == 1.0 and self.mu_exp <= (d - 1) * d_star:
            raise ValueError(
                f"beta = 1 needs mu_exp > (d-1) d* = {(d - 1) * d_star}")


def schedule_lambda(s: Schedule, ell: int, d: int, d_star: int) -> float:
    """The three displayed regularization schedules.

    beta > 1: 1/ell^(1/beta);  beta = 1: log(ell)^mu / ell with
    mu > (d-1) d*;  beta < 1: log(ell)^((d-1) d*/beta) / ell.
    """
    if ell < 3:
        raise ValueError("schedules need ell >= 3 (log powers degenerate)")
    s.check(d, d_star)
    if s.beta > 1.0:
        return ell ** (-1.0 / s.beta)
    if s.beta == 1.0:
        return math.log(ell) ** s.mu_exp / ell
    return math.log(ell) ** ((d - 1) * d_star / s.beta) / ell


def nystrom_eigs(spec: KernelSpec, ell: int, top_k: int, seed) -> np.ndarray:
    """Top eigenvalues of the scaled Gram of ell uniform samples.

    Scaling |S^{d-1}|^n / ell converts the Monte-Carlo Gram spectrum to the
    integral operator under the unnormalized product measure, i.e. the
    kappa^n-corrected closed-form values.
    """
    if not 0 < top_k <= ell:
        raise ValueError("need 0 < top_k <= ell")
    xs = sample_uniform_batch(ell, spec.n, spec.d, seed)
    G = gram(spec, xs)
    eigs = eigvalsh(G, subset_by_index=[ell - top_k, ell - 1])[::-1]
    return eigs * sphere_surface(spec.d) ** spec.n / ell


def closed_form_top_eigs(spec: KernelSpec, table: LambdaTable, entries: list,
                         top_k: int) -> np.ndarray:
    """kappa^n-scaled leading eigenvalues from an enumerated spectrum."""
    from .spectrum import expand_spectrum
    return expand_spectrum(entries, limit=top_k) * table.kappa ** spec.n


class SourceTarget:
    """Target built from eigenfunction aggregates against an anchor point.

    f(x) = sum over profiles of coeff * (kappa^n mu)^{beta/2}
           * prod_i zonal_sum(k_i; x_i, z_i); lives at source smoothness beta
    by construction, inside the RKHS whenever every used mu is positive.
    """

    def __init__(self, spec: KernelSpec, table: LambdaTable, anchor: PatchedImage,
                 profiles, beta: float = 1.0):
        self.spec = spec
        self.table = table
        self.anchor = anchor
        self.beta = beta
        self.parts = []
        k_hi = 0
        for prof, coeff in profiles:
            prof = canonical_profile(prof, spec.n)
            mu = mu_eigenvalue(spec, prof, table) * table.kappa ** spec.n
            if mu <= 0.0:
                raise ValueError(f"profile {prof} has zero eigenvalue; "
                                 "target would leave the RKHS")
            self.parts.append((prof, float(coeff) * mu ** (beta / 2.0)))
            k_hi = max(k_hi, prof[0])
        self.k_hi = k_hi

    def __call__(self, x: PatchedImage) -> float:
        return float(self.batch([x])[0])

    def batch(self, xs) -> np.ndarray:
        pts = stack_patches(xs)  # (m, n, d)
        Z = zonal_features(self.k_hi, self.spec.d,
                           np.einsum("mnd,nd->mn", pts, self.anchor.patches))
        out = np.zeros(len(xs))
        for prof, weight in self.parts:
            term = np.ones(len(xs))
            for i, k in enumerate(prof):
                term = term * Z[k, :, i]
            out += weight * term
        return out


def cnn_target(params, activations):
    """Label function x -> forward(params, activations, x)."""
    from .cnn import forward

    def target(x: PatchedImage) -> float:
        return forward(params, activations, x)

    return target


def apply_target(target, xs) -> np.ndarray:
    batch = getattr(target, "batch", None)
    if batch is not None:
        return np.asarray(batch(xs), dtype=float)
    return np.asarray([target(x) for x in xs], dtype=float)


def learning_curve(spec: KernelSpec, target, s: Schedule, sizes, test_size,
                   seed, threads: int = 1) -> list:
    """Fit at each size with the scheduled lambda; report train/test MSE.

    Train and test samples are drawn uniformly with streams keyed on
    (seed, size), so each row is reproducible in isolation.
    """
    sizes = [int(v) for v in sizes]

    def run_one(ell: int) -> dict:
        train = sample_uniform_batch(ell, spec.n, spec.d, (seed, ell, 0))
        test = sample_uniform_batch(test_size, spec.n, spec.d, (seed, ell, 1))
        data = Dataset(xs=tuple(train), ys=apply_target(target, train))
        lam = schedule_lambda(s, ell, spec.d, spec.d_star)
        fit = rls_fit(spec, data, lam)
        return {
            "ell": ell,
            "lambda": lam,
            "train_mse": mse(fit.fitted, data.ys),
            "test_mse": mse(predict(spec, fit, test),
                            apply_target(target, test)),
        }

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run_one, sizes))
    return [run_one(ell) for ell in sizes]
