"""Regularized least-squares in the multi-layer RKHS.

Dual solve of (G + lambda l I) c = y, the regularization schedules of the
source-condition regimes, Nystrom eigenvalue estimates, and learning-curve
experiments. Fits for different sizes/seeds are independent; RNG streams
derive from (seed, size) pairs so runs reproduce regardless of scheduling.
Sample batches are (count, n, d) arrays, and a target is a function from
such a batch to its (count,) labels.

Two routes. A kernel whose f1 and g are both polynomials has P =
`kernel.feature_count` monomial features (`kernel.features`), and G =
phi phi^T. `rls_fit`, `predict` and `nystrom_eigs` work on them (the
feature route) when 2P <= ell (and, for `nystrom_eigs`, top_k <= P) and
every patch has squared norm at most 1 + UNIT_SLACK, where the kernel's
clip of each inner product to [-1, 1] changes only rounding; otherwise
they take the Gram route below.
With 2P <= ell, phi (ell P floats) holds no more than the packed Gram it
replaces and phi^T phi (P^2 <= ell^2 / 4) less, and the work is about
ell P^2 <= ell^3 / 4 multiply-adds against ell^2 kernel values and an
ell^3 / 3 Cholesky factorization. `rls_fit` solves the primal system
(phi^T phi + lambda l I) w = phi^T y, whose solution is w = phi^T c for
the dual c (Saunders, Gammerman and Vovk, ICML 1998), in the packed
layout and through the same `cho_factor` and `cho_solve`; the fitted
values are phi w and c = (y - phi w) / shift, where the Gram route has
fitted = y - shift c (see `FitResult`). `predict` takes features(x) @ w
BLOCK points at a time, and `nystrom_eigs` the top eigenvalues of
phi^T phi, which are the nonzero ones of G. The benchmark learning curve
(square -> square, n = 2, d = 4: P = 210, so its sizes 800 and 1600 take
the route and 200 and 400 do not) and the benchmark Nystrom run
(identity -> square, n = 2, d = 3: P = 21) agree with their Gram-route
outputs within about 1e-15 relative.

The linear algebra is numpy alone. A Gram-route fit never unpacks its
Gram: `rls_fit` adds the ridge to the diagonal of the packed
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
for a 19.5 MiB dense Gram, and a Gram-route learning curve at ell = 8000
peaks at about 284 MiB, against 535 MiB with the Gram unpacked (one
OpenBLAS thread, 2-core x86-64 Linux). At ell = 1600 R agrees with
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
never unpacks the Gram, and a Gram-route `nystrom_eigs` keeps about
half of it resident. The run stops once the top k Ritz pairs have a
residual block of Frobenius norm at most 1e-10 |theta_1|, which bounds every
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
from .kernel import (KernelSpec, SymmetricGram, _batch, cross_gram,
                     feature_count, feature_gram, features, gram)
from .spectrum import LambdaTable, mu_eigenvalue, operator_values

log = logging.getLogger(__name__)

# test points per cross_gram or features call of predict
BLOCK = 128
# squared patch norm past 1 that the feature route accepts: a few ulps, the
# rounding of a normalized patch (at most 3 ulps measured for d = 9)
UNIT_SLACK = 8 * np.finfo(float).eps
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

    ``xs`` is the (ell, n, d) training batch, and (G + shift I) c = y for
    the labels y and the diagonal shift of the solve (lambda ell, plus the
    jitter of a retry). ``weights`` is None on the Gram route: the solve
    gives c, and ``fitted``, the fit's values G c at the training inputs,
    is taken as y - shift c. On the feature route (see `rls_fit`) the
    solve gives the primal weights w = phi^T c, held in ``weights``;
    ``fitted`` is phi w and c is (y - fitted) / shift. Either way fitted
    and G c agree up to the solve's residual, within 1e-12 relative in
    the tests.
    """

    coeffs: np.ndarray
    lam: float
    xs: np.ndarray
    fitted: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        f = np.asarray(self.fitted, dtype=float)
        if c.size != len(self.xs) or f.size != len(self.xs):
            raise ValueError("coefficient and fitted counts must match "
                             "training size")
        for name, a in (("coeffs", c), ("fitted", f),
                        ("weights", self.weights)):
            if a is not None:
                a = np.asarray(a, dtype=float)
                a.flags.writeable = False
                object.__setattr__(self, name, a)


def _check_diagonal(spec: KernelSpec) -> None:
    """Refuse a kernel whose values leave double range.

    The series are nonnegative, so |K(x, y)| <= K(x, x) = diag_value()
    bounds every entry of a Gram, and of phi^T phi on the feature route
    (its trace is the Gram's). A diagonal whose double still fits leaves
    room for the ridge shift that `rls_fit` adds to it.
    """
    diag = spec.diag_value()
    if not math.isfinite(2.0 * diag):
        raise OverflowError(f"kernel diagonal K(x, x) = {diag} leaves "
                            "room for no Gram arithmetic")


def _in_unit_ball(pts: np.ndarray) -> bool:
    """True when every patch of the (count, n, d) batch has squared norm
    at most 1 + UNIT_SLACK, so the kernel's clip of each inner product to
    [-1, 1] changes nothing but rounding."""
    return bool(np.einsum("cnd,cnd->cn", pts, pts).max(initial=0.0)
                <= 1.0 + UNIT_SLACK)


def _feature_route(spec: KernelSpec, pts: np.ndarray, rank: int = 1) -> bool:
    """True when a computation over the Gram of ``pts`` runs on their
    features instead: the kernel has P = feature_count(spec) features,
    at least ``rank`` of them, and 2P <= ell, so phi holds no more floats
    than the packed Gram and ell P^2 <= ell^3 / 4; and the patches lie in
    the unit ball."""
    count = feature_count(spec)
    return rank <= count and 2 * count <= len(pts) and _in_unit_ball(pts)


def _shift_diagonal(g: SymmetricGram, shift: float) -> None:
    """Add shift to the diagonal of the packed g, in place."""
    for r0, r1, B in g._blocks:
        d = np.arange(r1 - r0)
        B[d, d] += shift


def rls_fit(spec: KernelSpec, data: Dataset, lam: float) -> FitResult:
    """Solve (G + lambda l I) c = y by Cholesky, with one jitter retry.

    Gram route: G stays packed, the ridge, and on a retry the jitter, go
    onto the diagonal of its upper row blocks, and `cho_factor` writes R,
    with R_ii^-T in place of each diagonal block R_ii, over the blocks,
    so a fit holds about half an ell x ell Gram and never unpacks it. The
    fitted values are y - shift c (see `FitResult`), as G itself is
    factored by then.

    Feature route (`_feature_route`: a polynomial kernel with 2P <= ell
    features, inputs in the unit ball): the primal system
    (phi^T phi + lambda l I) w = phi^T y, whose solution is w = phi^T c
    (Saunders, Gammerman and Vovk, ICML 1998), is built packed by
    `kernel.feature_gram` and solved the same way, P x P instead of
    ell x ell. trace(phi^T phi) = trace(G), so the jitter is the same.

    A failed factorization leaves the blocks part factor, so the retry
    and the condition number of a fit that fails twice each rebuild the
    matrix; the condition number is that of the unjittered matrix the
    route factors.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError("lambda must be positive and finite")
    ell = len(data)
    shift = lam * ell
    _check_diagonal(spec)
    phi = features(spec, data.xs) if _feature_route(spec, data.xs) else None
    rhs = data.ys if phi is None else phi.T @ data.ys

    def build() -> SymmetricGram:
        return gram(spec, data.xs) if phi is None else feature_gram(phi)

    g = build()
    _shift_diagonal(g, shift)  # + lambda l I, in place
    try:
        sol = cho_solve(cho_factor(g), rhs)
    except np.linalg.LinAlgError:
        g = build()
        diag = np.concatenate([B.diagonal() for _, _, B in g._blocks])
        jitter = 1e-12 * diag.sum() / ell
        log.info("rls_fit: Cholesky failed at ell=%d; retrying with jitter "
                 "%.3e", ell, jitter)
        _shift_diagonal(g, shift)
        _shift_diagonal(g, jitter)
        try:
            sol = cho_solve(cho_factor(g), rhs)
        except np.linalg.LinAlgError as exc:
            G = np.asarray(build())
            G[np.diag_indices(len(G))] += shift  # the unjittered matrix
            cond = float(np.linalg.cond(G))
            raise SolverError(
                f"Cholesky factorization failed even with jitter {jitter:.3e} "
                f"(cond ~ {cond:.3e})", condition=cond) from exc
        shift += jitter
    if phi is None:
        return FitResult(coeffs=sol, lam=lam, xs=data.xs,
                         fitted=data.ys - shift * sol)
    fitted = phi @ sol
    return FitResult(coeffs=(data.ys - fitted) / shift, lam=lam, xs=data.xs,
                     fitted=fitted, weights=sol)


def predict(spec: KernelSpec, fit: FitResult, xs) -> np.ndarray:
    """f(x) = sum_i c_i K(x, x_i) for each point of a (count, n, d) batch.

    Taken BLOCK points at a time: as features(x) @ w when the fit has
    primal weights and every point lies in the unit ball (so a block
    holds BLOCK x P features), else as the kernel values against the
    training inputs times c (BLOCK x ell of them, not count x ell).
    """
    pts = _batch(spec, xs)
    out = np.empty(len(pts))
    primal = fit.weights is not None and _in_unit_ball(pts)
    for i in range(0, len(pts), BLOCK):
        block = pts[i:i + BLOCK]
        if primal:
            np.matmul(features(spec, block), fit.weights, out=out[i:i + BLOCK])
        else:
            np.matmul(cross_gram(spec, block, fit.xs), fit.coeffs,
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
    kappa^n-corrected closed-form values. On the feature route
    (`_feature_route` with rank top_k: a polynomial kernel whose
    P >= top_k features number at most ell / 2) `eigvalsh` reads the top
    eigenvalues of the P x P phi^T phi, which are those of G = phi phi^T.
    Otherwise the Gram goes to `eigvalsh` packed, so a Krylov run keeps
    its upper row blocks, about half the Gram, resident; the dense route
    unpacks it.
    """
    if not 0 < top_k <= ell:
        raise ValueError("need 0 < top_k <= ell")
    xs = sample_uniform_batch(ell, spec.n, spec.d, seed)
    scale = sphere_surface(spec.d) ** spec.n / ell
    _check_diagonal(spec)
    if _feature_route(spec, xs, top_k):
        a = feature_gram(features(spec, xs))
    else:
        a = gram(spec, xs)
    return eigvalsh(a, top_k) * scale


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
        self.anchor = np.asarray(anchor, dtype=float)
        if any(len(prof) > spec.n for prof, _ in profiles):
            raise ValueError(f"profile longer than patch count {spec.n}")
        padded = [list(p) + [0] * (spec.n - len(p)) for p, _ in profiles]
        # canonical rows: degrees non-increasing
        self.profiles = -np.sort(-np.array(padded, int).reshape(-1, spec.n))
        mu = operator_values(mu_eigenvalue(spec, self.profiles, table), spec.n)
        if not np.all(mu > 0.0):
            bad = tuple(self.profiles[np.argmin(mu > 0.0)].tolist())
            raise ValueError(f"profile {bad} has zero eigenvalue; "
                             "target would leave the RKHS")
        self.weights = (np.array([float(c) for _, c in profiles])
                        * mu ** (beta / 2.0))
        self.k_hi = int(self.profiles.max(initial=0))

    def __call__(self, xs) -> np.ndarray:
        """Target values on a (count, n, d) batch; shape (count,).
        StructuralError if the batch is not in the kernel's layout."""
        pts = _batch(self.spec, xs)
        Z = zonal_features(self.k_hi, self.spec.d,
                           np.einsum("mnd,nd->mn", pts, self.anchor))
        # Z[profiles[p, i], :, i], multiplied over the patches i: (P, count)
        terms = Z[self.profiles, :, np.arange(self.spec.n)].prod(axis=1)
        return self.weights @ terms


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
