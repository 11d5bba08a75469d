"""Regularized least-squares in the multi-layer RKHS.

Dual solve of (G + lambda l I) c = y, the regularization schedules of the
source-condition regimes, Nystrom eigenvalue estimates, and learning-curve
experiments. Fits for different sizes/seeds are independent; RNG streams
derive from (seed, size) pairs so runs reproduce regardless of scheduling.
Sample batches are (count, n, d) arrays, and a target is a function from
such a batch to its (count,) labels.

The linear algebra is numpy alone. A fit never unpacks its Gram:
`rls_fit` adds the ridge to the diagonal of the packed
`kernel.SymmetricGram` that `gram` returns, and `cho_factor` factors it
as G = R^T R in those same upper row blocks, one block of R's rows over
each block of G's (LAPACK's packed upper Cholesky, `dpptrf`, does the
same one row at a time). Block i, less the products of the earlier row
blocks, is formed PANEL_COLS columns at a time: each chunk is copied
once into a contiguous scratch array of one block's rows by PANEL_COLS,
the products are subtracted there and the result is copied back. Its
diagonal square is factored by `np.linalg.cholesky`, which raises
`np.linalg.LinAlgError` in whichever block the matrix fails to be
positive definite (the jitter retry in `rls_fit` catches it), the rest of
its row is multiplied by the inverse of that factor, again PANEL_COLS
columns at a time, and the inverse is stored in the diagonal square,
where no later block reads.
So an RLS fit holds the blocks, about half an ell x ell Gram, plus two
128 x 512 scratch arrays: at ell = 1600 its peak rises by about 12.2 MiB
for a 19.5 MiB dense Gram, and a learning curve at ell = 8000 peaks at
about 284 MiB, against 535 MiB with the Gram unpacked (one OpenBLAS
thread, 2-core x86-64 Linux). At ell = 1600 R agrees with
`np.linalg.cholesky` within 1e-13 of the largest entry (a test holds it
there). `cho_solve` runs the forward pass R^T z = b and the back pass
R x = z over the same blocks: each diagonal block is one product with a
stored inverse, and each off-diagonal update one matrix-vector product.
On well-conditioned SPD systems it agrees with a dense `np.linalg.solve`
to 1e-12 relative for ell up to 1600, including sizes that are not
multiples of the block or of PANEL_COLS. As G is gone once it is
factored, the fitted values are y - lambda ell c, which is G c up to the
solve's residual (see `FitResult`).

`eigvalsh` reads the top k eigenvalues of a Gram without tridiagonalizing
all of it: a randomized block Krylov method with Rayleigh-Ritz (Musco and
Musco, NeurIPS 2015, arXiv 1504.05477). Each step costs one product of the
Gram with a block of b = max(2k, k + 8) columns, which a packed
`kernel.SymmetricGram` makes from its upper row blocks: the Krylov route
never unpacks the Gram, and `nystrom_eigs` keeps about half of it
resident. The run stops once the top k Ritz pairs have a residual block
of Frobenius norm at most 1e-10 |theta_1|, which bounds every
|theta_i - lambda_i| by the same amount (see `eigvalsh`). The Krylov run
may cost at most a quarter of the dense `np.linalg.eigvalsh` under a cost
model fitted to timings of both routes; a Gram too small for two block
steps within that, or one whose residual trend says it will not converge
within it, takes the dense route. The
Krylov route pays off on Grams whose spectrum falls off fast past the
k-th eigenvalue (low rank or fast decay). On the rank-20 identity->square
Gram at ell = 2000, k = 10 (one BLAS thread) it stops after two steps and
40 basis columns in about 0.02 s; the dense route takes about 0.85 s. A
run that falls back has spent the two or three steps that showed the
trend: at ell = 2000 its total came to 0.96-1.14 of the dense time,
median 1.05 (exp->exp at k = 30: 0.91 s against 0.88 s).
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError
# zonal_poly_table is unused here; perfbench/layers.py wraps the name on
# this module
from .harmonics import sphere_surface, zonal_features, zonal_poly_table
from .image import default_rng, sample_uniform_batch
from .kernel import KernelSpec, SymmetricGram, _batch, cross_gram, gram
from .spectrum import (LambdaTable, canonical_profile, expand_spectrum,
                       mu_eigenvalue)

log = logging.getLogger(__name__)

# test points per cross_gram call of predict
BLOCK = 128
# eigvalsh stops once the top-k residual block is this small against |theta_1|
EIG_TOL = 1e-10
# the Krylov route of eigvalsh may cost at most this share of the dense route
KRYLOV_SHARE = 0.25
# Columns per chunk of cho_factor's panel products: the chunk's scratch,
# and the panel OpenBLAS packs for it, are one block's rows by this many
# columns, not by ell. The benchmark learning curve peaked at 50.0 MiB
# unchunked, 49.4 with chunks of 1024, 49.1 with 512 and 48.9 with 256
# (2-core x86-64 Linux, one OpenBLAS thread; one scratch array, with
# OpenSSL loaded). numpy subtracts from a strided chunk about 4x more
# slowly than from a contiguous array, so cho_factor updates a contiguous
# copy of each chunk: at ell = 4000 the update products took a median
# 0.52 s that way against 0.58 s subtracting from the strided chunks, and
# 0.46 s unchunked.
PANEL_COLS = 512


def cho_factor(g: SymmetricGram) -> SymmetricGram:
    """Factor the packed SPD matrix g = R^T R in g's own storage; returns g.

    Block i of g, rows r0:r1 and columns r0:ell, then holds row block i of
    the upper triangular R, except its diagonal square: that holds
    R_ii^-T, the lower triangular inverse (zeros above the diagonal)
    `cho_solve` multiplies by, as nothing reads R_ii once its block is
    done. Left-looking by row block, as LAPACK's packed `dpptrf` is by
    row: the block less the products of the earlier row blocks' columns
    r0:ell, then its diagonal square factored by `np.linalg.cholesky` and
    the rest of the row multiplied by the inverse of that factor. Both
    products run in column chunks of at most PANEL_COLS through a scratch
    array of one block's rows by PANEL_COLS, which also bounds the panels
    OpenBLAS packs; the update copies each chunk once into a second such
    array, subtracts there in the order the blocks come and copies it
    back, which gives bitwise the factor that subtracting from the chunk
    in place gives. Nothing outside the blocks is read or written.
    On a `np.linalg.LinAlgError` (a matrix that is not positive definite,
    in whichever block the failure shows) the blocks are part matrix,
    part factor.
    """
    width = max((r1 - r0 for r0, r1, _ in g._blocks), default=0)
    scratch = np.empty((2, width * min(PANEL_COLS, g.shape[0])))

    def chunks(B, start):
        """(c0, c1, T, A) for the column chunks of B from ``start`` on, T
        and A two contiguous scratch arrays of B's rows by c1 - c0
        columns."""
        for c0 in range(start, B.shape[1], PANEL_COLS):
            c1 = min(c0 + PANEL_COLS, B.shape[1])
            size = len(B) * (c1 - c0)
            yield (c0, c1, scratch[0, :size].reshape(len(B), -1),
                   scratch[1, :size].reshape(len(B), -1))

    for i, (r0, r1, B) in enumerate(g._blocks):
        w = r1 - r0
        if i:
            # a strided chunk of B is copied into A once, and the updates
            # subtracted there: numpy subtracts from a contiguous array
            # several times faster than from a strided view
            for c0, c1, T, A in chunks(B, 0):
                np.copyto(A, B[:, c0:c1])
                for q0, _, Q in g._blocks[:i]:
                    np.matmul(Q[:, r0 - q0:r1 - q0].T,
                              Q[:, r0 - q0 + c0:r0 - q0 + c1], out=T)
                    A -= T
                B[:, c0:c1] = A
        inverse = np.linalg.inv(np.linalg.cholesky(B[:, :w]))
        for c0, c1, T, _ in chunks(B, w):
            B[:, c0:c1] = np.matmul(inverse, B[:, c0:c1], out=T)
        B[:, :w] = inverse
    return g


def cho_solve(g: SymmetricGram, b: np.ndarray) -> np.ndarray:
    """Solve (R^T R) x = b for the g that `cho_factor` returns: a forward
    pass R^T z = b and a back pass R x = z, block by block. Each diagonal
    block is one product with R_ii^-T, kept in the block's diagonal
    square, or its transpose, and each off-diagonal update one product
    with the rest of a row block of R."""
    x = np.array(b, dtype=float)
    for r0, r1, B in g._blocks:  # R^T z = b
        x[r0:r1] = B[:, :r1 - r0] @ x[r0:r1]
        x[r1:] -= B[:, r1 - r0:].T @ x[r0:r1]
    for r0, r1, B in g._blocks[::-1]:  # R x = z
        w = r1 - r0
        x[r0:r1] = B[:, :w].T @ (x[r0:r1] - B[:, w:] @ x[r1:])
    return x


def _extend_basis(V: np.ndarray, m: int, X: np.ndarray, rng) -> int:
    """Store the columns of X, made orthonormal to V[:, :m] and to each
    other, in V[:, m:m + b]; return the new column count m + b.

    Each column is projected off the whole basis twice (classical
    Gram-Schmidt; twice is enough). A column left with at most 1e-8 of its
    norm lay in the span of the basis (a Gram of low rank runs out of new
    directions): a fresh random column, projected the same way, takes its
    place.
    """
    for x in X.T:
        norm = np.linalg.norm(x)
        while True:
            for _ in range(2):
                x = x - V[:, :m] @ (V[:, :m].T @ x)
            if np.linalg.norm(x) > 1e-8 * norm:
                break
            x = rng.standard_normal(len(x))
            norm = np.linalg.norm(x)
        V[:, m] = x / np.linalg.norm(x)
        m += 1
    return m


def _krylov_columns(ell: int, b: int) -> int:
    """The most basis columns a Krylov run with blocks of b columns may
    build before its modeled cost passes KRYLOV_SHARE of the dense route.

    The model is in units of the dense route's time per ell^3 (about
    1.1e-10 s on one OpenBLAS thread of a 2-core x86 machine): the dense
    route costs ell^3 + 4e6, and a step that ends with m columns costs
    1.2 ell^2 b (the Gram product) + 12 ell m b (orthogonalizing column by
    column) + 3.4 m^3 (the Rayleigh-Ritz eigh) + 4e6. The constants are a
    least-squares fit to timings of both routes at ell = 100-2000 and
    k = 1-30; single steps fall within -40%/+40% of it.
    """
    budget = KRYLOV_SHARE * (ell ** 3 + 4e6)
    m = spent = 0
    while m + b <= ell:
        spent += 1.2 * ell * ell * b + 12 * ell * (m + b) * b \
            + 3.4 * (m + b) ** 3 + 4e6
        if spent > budget:
            break
        m += b
    return m


def _steps_left(prev: float, rel: float) -> float:
    """Block steps the residual still needs to reach EIG_TOL if it keeps
    shrinking by the factor rel / prev of the last step (one more step
    when there is no previous residual, none that suffice when the
    residual is not finite or did not shrink)."""
    if not math.isfinite(rel):
        return math.inf
    if math.isinf(prev):
        return 1
    if rel >= prev:
        return math.inf
    return math.ceil(math.log(EIG_TOL / rel) / math.log(rel / prev))


@np.errstate(over="ignore", invalid="ignore")  # overflow sends it dense
def eigvalsh(a, k: int) -> np.ndarray:
    """The k largest eigenvalues of the symmetric matrix a, largest first.

    ``a`` is an ndarray or a packed `kernel.SymmetricGram`: the Krylov
    route only multiplies it by blocks of columns, which a packed Gram
    does from its upper row blocks, and the dense route takes
    ``np.asarray(a)``, which replaces a packed Gram's storage with a new
    dense array.

    Randomized block Krylov with Rayleigh-Ritz. A block of
    b = max(2k, k + 8) columns from ``image.default_rng(0)`` starts an
    orthonormal basis V, so each call is bitwise deterministic and draws on
    no caller's random stream. Each step multiplies the newest block by a
    (one product per step), takes the Ritz pairs (theta_i, y_i) of
    V^T a V, and appends the product, orthogonalized twice against V, as
    the next block. The run stops when the residual block
    R = [a y_i - theta_i y_i] of the top k pairs has Frobenius norm at most
    EIG_TOL |theta_1|, so every single residual is at most that too.

    Bound: for the orthonormal Ritz vectors, Kahan's theorem puts k
    eigenvalues of a within ||R||_2 <= ||R||_F of theta_1..theta_k, and
    Cauchy interlacing gives theta_i <= lambda_i. Unless the random start
    misses one of the top k eigenvectors (probability zero in exact
    arithmetic), |theta_i - lambda_i| <= EIG_TOL |theta_1| for every i <= k.

    Dense route, ``np.linalg.eigvalsh(np.asarray(a))[::-1][:k]``: the
    Krylov run may build only the basis columns that KRYLOV_SHARE of the
    dense cost pays for (`_krylov_columns`; 220 at ell = 2000, k = 10).
    Before each step it checks that the steps it still needs fit in them:
    two at the start, one after the first step, and after that as many as
    the last step's residual reduction predicts (`_steps_left`). When they
    do not fit (small Grams, where two steps already cost too much, and
    slowly converging ones), or a product or residual is not finite, the
    dense route is taken. The basis and its products are two ell x cap arrays,
    and cap stays under ell/8 (checked for ell up to 50000, k up to 100).
    The route taken is logged at INFO.
    """
    ell = a.shape[0]
    b = max(2 * k, k + 8)
    cap = _krylov_columns(ell, b)
    rng = default_rng(0)
    V = np.empty((ell, cap), order="F")  # orthonormal Krylov basis
    W = np.empty((ell, cap), order="F")  # a @ V
    H = np.empty((cap, cap))             # V^T a V
    X = rng.standard_normal((ell, b))
    m, rel, need = 0, math.inf, 2
    while m + need * b <= cap:
        m0, m = m, _extend_basis(V, m, X, rng)
        W[:, m0:m] = a @ V[:, m0:m]
        if not np.isfinite(W[:, m0:m]).all():
            log.info("eigvalsh: dense route, ell=%d k=%d: non-finite Gram "
                     "product", ell, k)
            return np.linalg.eigvalsh(np.asarray(a))[::-1][:k]
        H[:m, m0:m] = V[:, :m].T @ W[:, m0:m]
        H[m0:m, :m0] = H[:m0, m0:m].T
        theta, S = np.linalg.eigh(H[:m, :m])
        theta, S = theta[::-1][:k], S[:, ::-1][:, :k]
        resid = np.linalg.norm(W[:, :m] @ S - V[:, :m] @ (S * theta))
        scale = abs(theta[0])
        last = resid / scale if scale else (math.inf if resid else 0.0)
        if last <= EIG_TOL:
            log.info("eigvalsh: Krylov route, ell=%d k=%d: %d block steps, "
                     "%d basis columns, residual/|theta_1| %.2e",
                     ell, k, m // b, m, last)
            return theta
        need, rel = _steps_left(rel, last), last
        X = W[:, m0:m]
    log.info("eigvalsh: dense route, ell=%d k=%d: %d block steps and %d "
             "basis columns (residual/|theta_1| %.2e); %s more steps would "
             "pass the %d columns that %g of the dense cost pays for",
             ell, k, m // b, m, rel, need, cap, KRYLOV_SHARE)
    return np.linalg.eigvalsh(np.asarray(a))[::-1][:k]


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
    values at those inputs, G c, taken as y - shift c from the labels y
    and the diagonal shift of the solve (lambda ell, plus the jitter of a
    retry): (G + shift I) c = y, so the two agree up to the solve's
    residual, within 1e-12 relative in the tests.
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


def _bounded_gram(spec: KernelSpec, xs) -> SymmetricGram:
    """gram(spec, xs), refusing a kernel whose values leave double range.

    The series are nonnegative, so |K(x, y)| <= K(x, x) = diag_value()
    bounds every entry. A diagonal whose double still fits leaves room for
    the ridge shift that `rls_fit` adds to it.
    """
    diag = spec.diag_value()
    if not math.isfinite(2.0 * diag):
        raise OverflowError(f"kernel diagonal K(x, x) = {diag} leaves "
                            "room for no Gram arithmetic")
    return gram(spec, xs)


def _shift_diagonal(g: SymmetricGram, shift: float) -> None:
    """Add shift to the diagonal of the packed g, in place."""
    for r0, r1, B in g._blocks:
        d = np.arange(r1 - r0)
        B[d, d] += shift


def rls_fit(spec: KernelSpec, data: Dataset, lam: float) -> FitResult:
    """Solve (G + lambda l I) c = y by Cholesky, with one jitter retry.

    G stays packed: the ridge, and on a retry the jitter, go onto the
    diagonal of its upper row blocks, and `cho_factor` writes R, with
    R_ii^-T in place of each diagonal block R_ii, over the blocks, so a
    fit holds about half an ell x ell Gram and never unpacks it. The
    fitted values are y - shift c (see `FitResult`), as G itself is
    factored by then. A failed factorization leaves the blocks part
    factor, so the retry and the condition number of a fit that fails
    twice each rebuild the Gram through `gram`.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError("lambda must be positive and finite")
    ell = len(data)
    shift = lam * ell
    g = _bounded_gram(spec, data.xs)
    _shift_diagonal(g, shift)  # G + lambda l I, in place
    try:
        c = cho_solve(cho_factor(g), data.ys)
    except np.linalg.LinAlgError:
        g = _bounded_gram(spec, data.xs)
        diag = np.concatenate([B.diagonal() for _, _, B in g._blocks])
        jitter = 1e-12 * diag.sum() / ell
        log.info("rls_fit: Cholesky failed at ell=%d; retrying with jitter "
                 "%.3e", ell, jitter)
        _shift_diagonal(g, shift)
        _shift_diagonal(g, jitter)
        try:
            c = cho_solve(cho_factor(g), data.ys)
        except np.linalg.LinAlgError as exc:
            G = np.asarray(_bounded_gram(spec, data.xs))
            G[np.diag_indices(ell)] += shift  # the unjittered matrix
            cond = float(np.linalg.cond(G))
            raise SolverError(
                f"Gram factorization failed even with jitter {jitter:.3e} "
                f"(cond ~ {cond:.3e})", condition=cond) from exc
        shift += jitter
    return FitResult(coeffs=c, lam=lam, xs=data.xs,
                     fitted=data.ys - shift * c)


def predict(spec: KernelSpec, fit: FitResult, xs) -> np.ndarray:
    """f(x) = sum_i c_i K(x, x_i) for each point of a (count, n, d) batch.

    The kernel values are taken BLOCK points at a time, so the call holds
    BLOCK x ell of them, not count x ell.
    """
    pts = _batch(spec, xs)
    out = np.empty(len(pts))
    for i in range(0, len(pts), BLOCK):
        np.matmul(cross_gram(spec, pts[i:i + BLOCK], fit.xs), fit.coeffs,
                  out=out[i:i + BLOCK])
    return out


def mse(pred: np.ndarray, truth: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    return float(np.mean((pred - truth) ** 2))


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
    kappa^n-corrected closed-form values. The Gram goes to `eigvalsh`
    packed, so a Krylov run keeps its upper row blocks, about half the
    Gram, resident; the dense route unpacks it.
    """
    if not 0 < top_k <= ell:
        raise ValueError("need 0 < top_k <= ell")
    xs = sample_uniform_batch(ell, spec.n, spec.d, seed)
    scale = sphere_surface(spec.d) ** spec.n / ell
    return eigvalsh(_bounded_gram(spec, xs), top_k) * scale


def closed_form_top_eigs(spec: KernelSpec, table: LambdaTable, entries: list,
                         top_k: int) -> np.ndarray:
    """kappa^n-scaled leading eigenvalues from an enumerated spectrum."""
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
        """Target values on a (count, n, d) batch; shape (count,).
        StructuralError if the batch is not in the kernel's layout."""
        pts = _batch(self.spec, xs)
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
