"""Exact Mercer spectrum of the multi-layer kernel integral operator.

Single-sphere eigenvalues come from the closed form

  lambda[k][alpha] = |S^{d-2}| Gamma((d-1)/2) / 2^{k+1}
      * sum_s b[2s+k; alpha] ((2s+k)!/(2s)!) Gamma(s+1/2)/Gamma(s+k+d/2)

where b[m; alpha] are the coefficients of f1^alpha. The sum is evaluated in
log space (the 2^-(k+1) prefactor alone underflows near k ~ 1400).

The closed form is half the Funk-Hecke eigenvalue, exactly: KAPPA = 2.0.
With a = (d-3)/2 the Rodrigues formula writes
P_{k,d}(t) (1-t^2)^a = (-1)^k Gamma(a+1) / (2^k Gamma(k+a+1))
(d/dt)^k (1-t^2)^{k+a}, so k integrations by parts turn the Funk-Hecke
integral of a monomial t^m, m = k + 2s, into

  int t^m P_{k,d}(t) (1-t^2)^a dt
      = Gamma(a+1) / (2^k Gamma(k+a+1)) * m!/(2s)! * B(s+1/2, k+a+1)
      = Gamma((d-1)/2) / 2^k * m!/(2s)! * Gamma(s+1/2) / Gamma(s+k+d/2),

which is the closed-form term with 2^k in place of 2^{k+1}, for every d,
k and alpha. Tables keep the closed-form normalization (the published
``mu``); ``operator_values`` applies KAPPA^n where values meet the actual
integral operator (reconstruction, Nystrom, targets). The quadrature in
``harmonics`` is a test oracle for this constant, never run here.

Multi-patch eigenvalues aggregate per-profile:

  mu(k_1..k_n) = sum_q a_q sum_{alpha_1+..+alpha_n=q} multinomial
      * prod_i lambda[k_i][alpha_i]
               = sum_q a_q q! [u^q] prod_i phi_{k_i}(u),

with phi_k(u) = sum_alpha lambda[k][alpha]/alpha! u^alpha. Since
lambda[k][0] = 0 for k >= 1 exactly, any profile with more than
min(D, n) nonzero degrees gets mu = 0 exactly: the ANOVA-order bound.

The Mercer sum factorizes through the same identity. With Z[k, i] the
zonal feature of patch i (``harmonics.zonal_features``), summing
mu(k_1..k_n) prod_i Z[k_i, i] over every profile with degrees <= k_max
gives

  sum_q a_q q! [u^q] prod_i F_i(u),   F_i(u) = sum_k Z[k, i] phi_k(u),

one (k, q) contraction per patch and n truncated products, batched over
all pairs. ``mu_eigenvalue`` and ``SpectralExpansion.reconstruct`` share
that truncated product (``_mercer_sum``). The truncation at q_cap keeps
the ANOVA zeros exact in the sum as well: phi_k has an exactly zero
constant term for k >= 1, so a profile with more than D nonzero degrees
only reaches powers u^q with q > D, which are never summed.

`kernel` refuses a series too short for its layer; here a table only meets
a request: `lambda_table` refuses k_max past the f1 order, and a polynomial
f1 whose a_max-th power its coefficients do not hold whole (f1^alpha has
degree alpha * f1.degree); `_outer_weights` refuses q_cap past the table's
alpha, `mu_eigenvalue` a degree past its k_max. For a polynomial f1 every
s-series ends exactly, so its tail is 0; only an f1 of degree inf has
s-series cut at its order, and their tails are bounded or refused.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, FitError, TruncationError
# funk_hecke_eigenvalue, power and zonal_poly_table are unused here;
# perfbench/layers.py wraps these names on this module
from .harmonics import (funk_hecke_eigenvalue, harmonic_dim, sphere_surface,
                        zonal_features, zonal_poly_table)
from .kernel import KernelSpec, _pair_batches
from .taylor import CoeffSeries, power, power_table

# Funk-Hecke eigenvalue / closed-form lambda, exact (module docstring)
KAPPA = 2.0


def operator_values(values, n: int):
    """Closed-form values on n patches in the operator's normalization."""
    return values * KAPPA ** n


@dataclass(frozen=True)
class LambdaTable:
    """lambda[k][alpha] grid plus per-entry s-series tail estimates."""

    d: int
    lam: np.ndarray   # (k_max+1, a_max+1)
    tail: np.ndarray  # relative size of the last s-term

    def __post_init__(self):
        for a in (self.lam, self.tail):
            a.flags.writeable = False

    @property
    def k_max(self) -> int:
        return self.lam.shape[0] - 1

    @property
    def a_max(self) -> int:
        return self.lam.shape[1] - 1


def _lgamma_halves(j_max: int) -> np.ndarray:
    """lg[j] = log Gamma(j/2) for 1 <= j <= j_max (lg[0], the pole, is nan)."""
    lg = np.empty(j_max + 1)
    lg[0] = math.nan
    lg[1:] = [math.lgamma(j / 2.0) for j in range(1, j_max + 1)]
    return lg


def lambda_table(f1: CoeffSeries, d: int, k_max: int, a_max: int,
                 s_tol: float = 1e-12) -> LambdaTable:
    """Closed-form eigenvalue table for f1^alpha, alpha <= a_max, k <= k_max.

    A polynomial f1 (finite ``degree``) must hold f1^a_max whole; then
    every s-series ends exactly and every tail is 0. An f1 of degree inf
    must be truncated high enough that the s-series tail at k_max falls
    below s_tol; otherwise a convergence error is raised. No quadrature
    runs: the Funk-Hecke ratio is the exact KAPPA. The powers f1^alpha come
    from one left-fold product each (bitwise equal to ``power``). Every
    log-gamma argument is a half-integer, so one ``math.lgamma`` table
    serves the whole call, and the alpha-independent part of each term is
    built once per k from four strided views of it (no index arrays).
    """
    if not f1.nonneg:
        raise ValueError("f1 must be a nonnegative series")
    order = f1.order
    if k_max < 0 or a_max < 0 or k_max > order:
        raise TruncationError(
            f"k_max={k_max} requires f1 coefficients up to at least that "
            f"degree; raise truncation.order")
    log_pref_base = math.log(sphere_surface(d - 1)) + math.lgamma((d - 1) / 2.0)
    lam = np.zeros((k_max + 1, a_max + 1))
    tail = np.zeros((k_max + 1, a_max + 1))
    table = power_table(f1, order)
    powers = [table(alpha) for alpha in range(a_max + 1)]
    if powers[-1].degree != math.inf and not powers[-1].whole:
        raise TruncationError(
            f"f1^{a_max} has degree {powers[-1].degree}, above the f1 order "
            f"{order}; raise truncation.order")
    b = np.stack([p.asarray() for p in powers])
    with np.errstate(divide="ignore"):
        log_b = np.log(b)  # -inf at exact zeros, which the masks below drop
    # every log-gamma argument is a half-integer j/2 with j <= 2 order + d
    lg = _lgamma_halves(2 * order + d)
    for k in range(k_max + 1):
        # s = 0 .. ns-1 and m = k + 2s; each log-gamma argument steps by a
        # fixed stride in s, so each term is a strided view of lg
        ns = (order - k) // 2 + 1
        # alpha-independent part of log t: m!/(2s)! Gamma(s+1/2)/Gamma(s+k+d/2)
        log_c = (lg[2 * k + 2:2 * k + 2 + 4 * ns:4] - lg[2:2 + 4 * ns:4]
                 + lg[1:1 + 2 * ns:2] - lg[2 * k + d:2 * k + d + 2 * ns:2])
        log_pref = log_pref_base - (k + 1) * math.log(2.0)
        for alpha in range(a_max + 1):
            # only the parity subsequence b[k::2] feeds this entry; for a
            # whole power the sum ends exactly, and for a cut infinite one a
            # zero at its boundary means the subsequence ended (parity-gapped
            # majorants), a nonzero one means real truncation
            pos = b[alpha, k::2] > 0.0
            if pos.all():
                logt = log_b[alpha, k::2] + log_c
            elif pos.any():
                logt = (log_b[alpha, k::2] + log_c)[pos]
            else:
                continue  # exact zero (notably alpha = 0, k >= 1)
            truncated = not powers[alpha].whole and bool(pos[-1])
            top = logt.max()
            logsum = top + math.log(np.exp(logt - top).sum())
            lam[k, alpha] = math.exp(log_pref + logsum)
            t_rel = math.exp(logt[-1] - logsum)
            tail[k, alpha] = t_rel if truncated else 0.0
            if truncated:
                if logt.size < 2 or logt[-1] >= logt[-2]:
                    raise ConvergenceError(
                        f"s-series still growing at the coefficient boundary "
                        f"(k={k}, alpha={alpha}); raise the f1 order")
                if t_rel >= s_tol:
                    raise ConvergenceError(
                        f"s-series tail {t_rel:.3e} >= {s_tol:.1e} at "
                        f"k={k}, alpha={alpha}; raise the f1 order")
    return LambdaTable(d=d, lam=lam, tail=tail)


def profile_multiplicity(profiles, d: int):
    """Exact multiplicities (Python ints: they pass 2^63) of the sorted rows
    of a (..., n) array: arrangements n! / prod c! over the runs of equal
    degrees (run: the 1-based place in its run) times harmonic dimensions."""
    prof = np.asarray(profiles)
    run = np.ones(prof.shape, dtype=object)
    for i in range(1, prof.shape[-1]):
        run[..., i] = np.where(prof[..., i] == prof[..., i - 1],
                               run[..., i - 1] + 1, 1)
    dims = np.array([harmonic_dim(k, d)
                     for k in range(prof.max(initial=0) + 1)], dtype=object)
    return (math.factorial(prof.shape[-1]) // run.prod(axis=-1)
            * dims[prof].prod(axis=-1))


@dataclass(frozen=True)
class Spectrum:
    """Positive eigenvalues by canonical profile: (P, n) non-increasing
    ``profiles``, their closed-form ``mu`` and exact ``multiplicity``
    (Python ints), in rows sorted by (-mu, total degree, profile)."""

    profiles: np.ndarray
    mu: np.ndarray
    multiplicity: np.ndarray

    def __post_init__(self):
        for key, dtype in (("profiles", int), ("mu", float),
                           ("multiplicity", object)):
            object.__setattr__(self, key, np.array(getattr(self, key), dtype))
            getattr(self, key).flags.writeable = False

    def __len__(self) -> int:
        return len(self.mu)

    @property
    def ends(self) -> np.ndarray:
        """Exact cumulative multiplicities: row p ends before rank ends[p]."""
        return np.cumsum(self.multiplicity)

    @property
    def mass(self) -> int:
        return int(self.multiplicity.sum())

    def eigenvalues(self, start: int = 0, stop=None) -> np.ndarray:
        """Eigenvalues at the ranks [start, stop), multiplicities unrolled."""
        ends, stop = self.ends, self.mass if stop is None else stop
        counts = np.minimum(ends, stop) - np.maximum(ends - self.multiplicity,
                                                     start)
        return np.repeat(self.mu, np.maximum(counts, 0).astype(np.int64))


@lru_cache(maxsize=None)
def _factorials(size: int) -> np.ndarray:
    """0!, 1!, ..., (size-1)! as floats; cached per size, so read-only."""
    fact = np.array([math.factorial(a) for a in range(size)], dtype=float)
    fact.flags.writeable = False
    return fact


def _outer_weights(spec: KernelSpec, table: LambdaTable) -> np.ndarray:
    """a_q q! for q <= q_cap, refusing a lambda table too short for them."""
    q_cap = spec.q_cap
    if q_cap > table.a_max:
        raise TruncationError(
            f"outer degree {q_cap} needs lambda table up to alpha={q_cap}, "
            f"have {table.a_max}")
    return np.array(spec.g.coeffs[: q_cap + 1]) * _factorials(q_cap + 1)


def _mercer_sum(weights: np.ndarray, factors) -> np.ndarray:
    """sum_q weights[q] [u^q] prod_i factors[i](u), truncated at u^{Q-1}.

    ``factors`` holds one (..., Q) array of coefficients in u per patch,
    over any batch shape; Q = len(weights). Powers past Q-1 are dropped,
    never summed: that keeps the ANOVA zeros exact.
    """
    q = weights.size
    poly = factors[0]
    for f in factors[1:]:
        nxt = np.zeros_like(poly)
        for j in range(q):
            nxt[..., j:] += poly[..., j:j + 1] * f[..., :q - j]
        poly = nxt
    return poly @ weights


def mu_eigenvalue(spec: KernelSpec, profiles, table: LambdaTable):
    """Eigenvalues of the degree profiles in the rows of a (..., n) array,
    in closed-form normalization; shape (...). Each row is sorted
    non-increasing first, so every order of a profile gives the same bits,
    and one truncated product serves every row."""
    prof = np.asarray(profiles, dtype=int)
    if prof.shape[-1:] != (spec.n,):
        raise ValueError(f"profiles need {spec.n} degrees each, got an "
                         f"array of shape {prof.shape}")
    prof = np.sort(prof, axis=-1)[..., ::-1]
    if prof.min(initial=0) < 0:
        raise ValueError("degrees must be >= 0")
    if prof.max(initial=0) > table.k_max:
        raise TruncationError(f"profile degree {prof.max()} beyond table "
                              f"k_max={table.k_max}")
    weights = _outer_weights(spec, table)
    phi = table.lam[:, :weights.size] / _factorials(weights.size)
    return _mercer_sum(weights, [phi[prof[..., i]] for i in range(spec.n)])


def enumerate_spectrum(spec: KernelSpec, table: LambdaTable,
                       k_max: int | None = None) -> Spectrum:
    """All positive eigenvalues with degrees <= k_max, sorted non-increasing.

    Only profiles with at most min(d*, n) nonzero degrees can be positive,
    so enumeration runs over canonical nonzero multisets of that size.
    Ties order by total degree then lexicographic profile.
    """
    k_cap = table.k_max if k_max is None else min(k_max, table.k_max)
    blocks = []
    for w in range(min(spec.d_star, spec.n) + 1):
        nonzero = list(itertools.combinations_with_replacement(
            range(k_cap, 0, -1), w))  # non-increasing
        rows = np.array(nonzero, dtype=int).reshape(len(nonzero), w)
        blocks.append(np.pad(rows, [(0, 0), (0, spec.n - w)]))
    profiles = np.concatenate(blocks)
    mu = mu_eigenvalue(spec, profiles, table)
    keep = mu > 0.0
    profiles, mu = profiles[keep], mu[keep]
    order = np.lexsort((*profiles.T[::-1], profiles.sum(axis=1), -mu))
    return Spectrum(profiles[order], mu[order],
                    profile_multiplicity(profiles[order], spec.d))


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple:
    """Least-squares slope and intercept of y against x, in closed form
    about the means: ``np.polyfit(x, y, 1)`` to rounding, without LAPACK.
    Centring keeps the sums well scaled even for x = m^4 near 1e20."""
    x_mean = x.mean()
    y_mean = y.mean()
    dx = x - x_mean
    slope = (dx @ (y - y_mean)) / (dx @ dx)
    return slope, y_mean - slope * x_mean


def _distinct_sorted(a: np.ndarray) -> np.ndarray:
    """The distinct values of the ascending array a, in order:
    ``np.unique(a)`` for sorted input, without the sort (and without the
    ``numpy.ma`` import that ``np.unique`` pulls in)."""
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def counting_slope(spectrum: Spectrum, rank_lo: int = 20,
                   rank_hi: int = 2000, grid: int = 40) -> float:
    """Slope of log N(lam) against log log(1/lam) over a rank window.

    The spectrum is normalized by its largest eigenvalue so the double log
    is defined; the asymptotic slope (d-1) d* is unaffected. The slope is
    the closed-form least-squares line of ``_line_fit``.
    """
    ends = spectrum.ends
    rank_hi = min(rank_hi, spectrum.mass - 1)
    if rank_hi <= rank_lo:
        raise FitError("not enough eigenvalues for the counting regression")
    mu = spectrum.mu / spectrum.mu[0]  # non-increasing
    ranks = _distinct_sorted(np.geomspace(rank_lo, rank_hi, grid).astype(int))
    rows = np.searchsorted(ends, ranks, "right")  # first row ending past m
    lam_grid = _distinct_sorted(mu[rows][::-1])
    # a ratio that underflows to 0 has no double log
    lam_grid = lam_grid[(lam_grid > 0.0) & (lam_grid < 1.0)]
    # N(lam) ends with the last row of mu >= lam
    counts = ends[np.searchsorted(-mu, -lam_grid, "right") - 1]
    x = np.log(-np.log(lam_grid))  # 1 / lam overflows for subnormal lam
    y = np.log(counts.astype(float))
    if x.size < 3 or np.ptp(x) == 0.0:
        raise FitError("degenerate counting grid")
    return float(_line_fit(x, y)[0])


def fit_decay(spectrum: Spectrum, p_grid=None, m_min: int = 1,
              m_max: int | None = None) -> dict:
    """Fit log mu_m = log C - gamma m^{1/p} over a grid of stretch exponents.

    Returns the best p (least residual sum of squares) with its gamma and
    R^2, plus the counting-function slope estimate. Each p is one
    closed-form least-squares line (``_line_fit``, no LAPACK), fitted in
    turn so no (ranks x grid) array is built. Requires >= 100 positive
    eigenvalues; an all-equal spectrum or a rank window of fewer than two
    is a fit error.
    """
    mass = spectrum.mass
    if mass < 100:
        raise FitError(f"need >= 100 positive eigenvalues, have {mass}")
    m_max = mass if m_max is None else min(m_max, mass)
    m = np.arange(m_min, m_max, dtype=float)
    if m.size < 2:
        raise FitError(f"rank window [{m_min}, {m_max}) holds fewer than two "
                       "eigenvalues")
    y = np.log(spectrum.eigenvalues(m_min, m_max))
    if np.ptp(y) == 0.0:
        raise FitError("flat spectrum")
    if p_grid is None:
        p_grid = np.arange(0.25, 8.25, 0.25)
    best = None
    sst = float(np.sum((y - y.mean()) ** 2))
    for p in p_grid:
        x = m ** (1.0 / p)
        slope, intercept = _line_fit(x, y)
        sse = float(np.sum((slope * x + intercept - y) ** 2))
        if best is None or sse < best[0]:
            best = (sse, float(p), float(-slope))
    sse, p, gamma = best
    result = {"exponent_p": p, "gamma": gamma,
              "goodness": 1.0 - sse / sst if sst > 0 else 1.0}
    try:
        result["counting_slope"] = counting_slope(spectrum)
    except FitError:
        result["counting_slope"] = float("nan")
    return result


class SpectralExpansion:
    """Mercer-sum evaluator for a fixed kernel, table, and degree cutoff.

    reconstruct() evaluates the factorized sum over every profile with
    degrees <= k_max (module docstring) and multiplies by kappa^n, so the
    sum targets the scalar kernel under the unnormalized measure.
    """

    def __init__(self, spec: KernelSpec, table: LambdaTable, k_max: int):
        if table.d != spec.d:
            raise ValueError("table dimension does not match kernel")
        self.spec = spec
        self.k_max = min(k_max, table.k_max)
        self._weights = _outer_weights(spec, table)
        q = self._weights.size
        self._phi = table.lam[: self.k_max + 1, :q] / _factorials(q)

    def reconstruct(self, xs, ys) -> np.ndarray:
        """Spectral kernel values K(xs[i], ys[i]) for two (count, n, d)
        batches; shape (count,). StructuralError if they do not pair up in
        the kernel's layout."""
        a, b = _pair_batches(self.spec, xs, ys)
        Z = zonal_features(self.k_max, self.spec.d,
                           np.einsum("mnd,mnd->nm", a, b))  # (k, n, count)
        F = Z.transpose(1, 2, 0) @ self._phi  # (n, count, Q)
        return operator_values(_mercer_sum(self._weights, F), self.spec.n)
