"""Regularized least-squares in the multi-layer RKHS.

Dual solve of (G + lambda l I) c = y, the regularization schedules of the
source-condition regimes, Nystrom eigenvalue estimates, and learning-curve
experiments. Fits for different sizes/seeds are independent; RNG streams
derive from (seed, size) pairs so runs reproduce regardless of scheduling.
Sample batches are (count, n, d) arrays, and a target is a function from
such a batch to its (count,) labels.

The linear algebra is numpy alone. `cho_factor` is `np.linalg.cholesky`,
which raises `np.linalg.LinAlgError` on a matrix that is not positive
definite (the jitter retry in `rls_fit` catches it). numpy has no
triangular solve, so `cho_solve` runs a blocked forward substitution
L z = b and then a blocked back substitution L^T x = z: each diagonal block
of at most BLOCK rows is solved by one `np.linalg.solve`, and each
off-diagonal update is one matrix-vector product. On well-conditioned SPD
systems it agrees with a dense `np.linalg.solve` to 1e-12 relative for
ell up to 1600, including sizes that are not multiples of the block (a
test holds it there). `eigvalsh` takes the top k of `np.linalg.eigvalsh`.
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
from .image import sample_uniform_batch
from .kernel import KernelSpec, cross_gram, gram
from .spectrum import LambdaTable, canonical_profile, mu_eigenvalue

# rows per diagonal block of the triangular solves in cho_solve
BLOCK = 128


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of the SPD matrix a (a = L L^T)."""
    return np.linalg.cholesky(a)


def cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b by blocked forward and back substitution."""
    x = np.array(b, dtype=float)
    starts = range(0, L.shape[0], BLOCK)
    for i in starts:  # L z = b, top block first
        j = i + BLOCK
        x[i:j] = np.linalg.solve(L[i:j, i:j], x[i:j] - L[i:j, :i] @ x[:i])
    for i in reversed(starts):  # L^T x = z, bottom block first
        j = i + BLOCK
        x[i:j] = np.linalg.solve(L[i:j, i:j].T, x[i:j] - L[j:, i:j].T @ x[j:])
    return x


def eigvalsh(a: np.ndarray, k: int) -> np.ndarray:
    """The k largest eigenvalues of the symmetric matrix a, largest first."""
    return np.linalg.eigvalsh(a)[::-1][:k]


@dataclass(frozen=True)
class Dataset:
    """A (count, n, d) batch of inputs with its (count,) labels."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.array(self.xs, dtype=float)  # a private read-only copy
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 3:
            raise ValueError("xs must be a (count, n, d) batch")
        if len(xs) != ys.size or ys.size < 1:
            raise ValueError("need matching, nonempty xs and ys")
        if not np.all(np.isfinite(ys)):
            raise ValueError("labels must be finite")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class FitResult:
    """Dual coefficients of one RLS solve plus the inputs they refer to.

    ``xs`` is the (ell, n, d) training batch; ``fitted`` holds the fit's
    values at those inputs, G c, taken from the Gram the solve already
    built.
    """

    coeffs: np.ndarray
    lam: float
    xs: np.ndarray
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


def _bounded_gram(spec: KernelSpec, xs) -> np.ndarray:
    """gram(spec, xs), refusing a kernel whose values leave double range.

    The series are nonnegative, so |K(x, y)| <= K(x, x) = diag_value()
    bounds every entry, and gram's symmetrization adds two of them.
    """
    diag = spec.diag_value()
    if not math.isfinite(2.0 * diag):
        raise OverflowError(f"kernel diagonal K(x, x) = {diag} leaves "
                            "room for no Gram arithmetic")
    return gram(spec, xs)


def rls_fit(spec: KernelSpec, data: Dataset, lam: float) -> FitResult:
    """Solve (G + lambda l I) c = y by Cholesky, with one jitter retry."""
    if not 0.0 < lam < math.inf:
        raise ValueError("lambda must be positive and finite")
    ell = len(data)
    G = _bounded_gram(spec, data.xs)
    A = G + lam * ell * np.eye(ell)
    try:
        c = cho_solve(cho_factor(A), data.ys)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * np.trace(G) / ell
        try:
            c = cho_solve(cho_factor(A + jitter * np.eye(ell)), data.ys)
        except np.linalg.LinAlgError as exc:
            cond = float(np.linalg.cond(A))
            raise SolverError(
                f"Gram factorization failed even with jitter {jitter:.3e} "
                f"(cond ~ {cond:.3e})", condition=cond) from exc
    return FitResult(coeffs=c, lam=lam, xs=data.xs, fitted=G @ c)


def predict(spec: KernelSpec, fit: FitResult, xs) -> np.ndarray:
    """f(x) = sum_i c_i K(x, x_i) for each point of a (count, n, d) batch."""
    return cross_gram(spec, xs, fit.xs) @ fit.coeffs


def mse(pred: np.ndarray, truth: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    return float(np.mean((pred - truth) ** 2))


def rls_objective(spec: KernelSpec, data: Dataset, fit: FitResult) -> float:
    """(1/l) sum residual^2 + lambda c^T G c at the fitted coefficients."""
    G = gram(spec, data.xs)
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
        lam = ell ** (-1.0 / s.beta)
    elif s.beta == 1.0:
        lam = math.log(ell) ** s.mu_exp / ell
    else:
        lam = math.log(ell) ** ((d - 1) * d_star / s.beta) / ell
    if lam == math.inf:  # an infinite exponent (tiny beta) raises nothing
        raise OverflowError(f"schedule lambda overflows at beta={s.beta!r}")
    return lam


def nystrom_eigs(spec: KernelSpec, ell: int, top_k: int, seed) -> np.ndarray:
    """Top eigenvalues of the scaled Gram of ell uniform samples.

    Scaling |S^{d-1}|^n / ell converts the Monte-Carlo Gram spectrum to the
    integral operator under the unnormalized product measure, i.e. the
    kappa^n-corrected closed-form values.
    """
    if not 0 < top_k <= ell:
        raise ValueError("need 0 < top_k <= ell")
    xs = sample_uniform_batch(ell, spec.n, spec.d, seed)
    scale = sphere_surface(spec.d) ** spec.n / ell
    return eigvalsh(_bounded_gram(spec, xs), top_k) * scale


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
    The anchor z is one (n, d) patched image.
    """

    def __init__(self, spec: KernelSpec, table: LambdaTable, anchor,
                 profiles, beta: float = 1.0):
        self.spec = spec
        self.table = table
        self.anchor = np.asarray(anchor, dtype=float)
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

    def __call__(self, xs) -> np.ndarray:
        """Target values on a (count, n, d) batch; shape (count,)."""
        pts = np.asarray(xs, dtype=float)
        Z = zonal_features(self.k_hi, self.spec.d,
                           np.einsum("mnd,nd->mn", pts, self.anchor))
        out = np.zeros(len(pts))
        for prof, weight in self.parts:
            term = np.ones(len(pts))
            for i, k in enumerate(prof):
                term = term * Z[k, :, i]
            out += weight * term
        return out


def learning_curve(spec: KernelSpec, target, s: Schedule, sizes, test_size,
                   seed, threads: int = 1) -> list:
    """Fit at each size with the scheduled lambda; report train/test MSE.

    ``target`` maps a (count, n, d) batch to its (count,) labels.
    Train and test samples are drawn uniformly with streams keyed on
    (seed, size), so each row is reproducible in isolation.
    """
    sizes = [int(v) for v in sizes]

    def labels(xs) -> np.ndarray:
        ys = np.asarray(target(xs), dtype=float)
        if not np.all(np.isfinite(ys)):
            raise OverflowError("target labels leave double range")
        return ys

    def run_one(ell: int) -> dict:
        train = sample_uniform_batch(ell, spec.n, spec.d, (seed, ell, 0))
        test = sample_uniform_batch(test_size, spec.n, spec.d, (seed, ell, 1))
        data = Dataset(xs=train, ys=labels(train))
        lam = schedule_lambda(s, ell, spec.d, spec.d_star)
        fit = rls_fit(spec, data, lam)
        return {
            "ell": ell,
            "lambda": lam,
            "train_mse": mse(fit.fitted, data.ys),
            "test_mse": mse(predict(spec, fit, test), labels(test)),
        }

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run_one, sizes))
    return [run_one(ell) for ell in sizes]
