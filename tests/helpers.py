"""Test-only oracles and fixtures, built from library functions, that no
harmonica command needs."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import harmonica
from harmonica import kernel, krr
from harmonica.activations import activation
from harmonica.errors import ConvergenceError, TruncationError
from harmonica.harmonics import _jacobi_nodes, sphere_surface, zonal_poly_table
from harmonica.kernel import KernelSpec, SymmetricGram, TruncationConfig, gram
from harmonica.spectrum import _lgamma_halves
from harmonica.taylor import (CoeffSeries, _computed_series, check_order,
                              power_table, series_from)


def rls_objective(spec, data, fit) -> float:
    """(1/l) sum residual^2 + lambda c^T G c at the fitted coefficients."""
    G = np.asarray(gram(spec, data.xs))
    resid = data.ys - G @ fit.coeffs
    return float(np.mean(resid ** 2)
                 + fit.lam * fit.coeffs @ G @ fit.coeffs)


def fsum_product(a: CoeffSeries, b: CoeffSeries, order: int) -> CoeffSeries:
    """Truncated product: result[m] = sum_{k<=m} a[k] b[m-k], of degree
    a.degree + b.degree.

    fsum keeps each coefficient correctly rounded, so the product commutes
    exactly.
    """
    check_order(order)
    ca, cb = a.coeffs, b.coeffs
    out = []
    for m in range(order + 1):
        lo = max(0, m - len(cb) + 1)
        hi = min(m, len(ca) - 1)
        out.append(math.fsum(ca[k] * cb[m - k] for k in range(lo, hi + 1)))
    return _computed_series(out, a.nonneg and b.nonneg, a.degree + b.degree)


def constant_kernel(value: float, n: int, d: int,
                    trunc: TruncationConfig | None = None) -> KernelSpec:
    """K identically ``value``; used by rank-one sanity checks."""
    trunc = trunc or TruncationConfig()
    f1 = series_from([0.0, 1.0], order=trunc.series_order, nonneg=True)
    g = series_from([float(value)], order=trunc.q_max, nonneg=True)
    return KernelSpec(f1=f1, g=g, n=n, d=d, trunc=trunc)


def top_index(series) -> int:
    """Index of the last nonzero coefficient of a series (0 if none)."""
    return max((m for m, c in enumerate(series.coeffs) if c), default=0)


# the one parameter each kind takes; a kind not listed takes none (a
# test-side copy of the catalog, which the refusal tests hold it to)
TAKES = {"poly": "coeffs", "custom": "coeffs", "geometric": "ratio"}


def activation_with(kind: str, coeffs=(0.5, 0.0, 2.0), ratio=0.9):
    """An activation of ``kind`` given the one parameter that kind takes."""
    own = {"coeffs": coeffs, "ratio": ratio}
    return activation(kind, **{k: v for k, v in own.items()
                               if TAKES.get(kind) == k})


def activation_degree(a) -> float:
    """Polynomial degree of an activation's majorant read off its kind
    (0 for a zero polynomial), or inf: the rule the kernel once used."""
    if a.kind in ("poly", "custom"):
        return float(max((i for i, c in enumerate(a.coeffs) if c), default=0))
    return {"square": 2.0, "identity": 1.0}.get(a.kind, math.inf)


def outer_degree(acts) -> float:
    """The kernel's outer degree D by the product of the outer layers'
    degrees, 0 if any of them is 0 (a constant layer makes g constant)."""
    degrees = [activation_degree(a) for a in acts[1:]]
    return 0.0 if 0.0 in degrees else math.prod(degrees, start=1.0)


def zonal_orthogonality_error(k: int, kp: int, d: int) -> float:
    """Weighted inner product of P_{k,d} and P_{k',d}; ~0 for k != k'."""
    n = (k + kp) // 2 + 6
    t, w = _jacobi_nodes(n, (d - 3) / 2.0)
    tab = zonal_poly_table(max(k, kp), d, t)
    return float(np.dot(w, tab[k] * tab[kp]))


def save_image_text(img, path) -> None:
    """Write an Image in the plain-text format load_image_text reads."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{img.h} {img.w}\n")
        for row in img.pixels:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def dense_gram(spec, xs) -> np.ndarray:
    """The Gram filled whole, as `gram` built it before it was packed: the
    tiles from the diagonal rightward go into one ell x ell array, and
    then the strict upper triangle is mirrored down."""
    a = np.asarray(xs, dtype=float)
    count = len(a)
    G = np.empty((count, count))
    align = kernel.TILE_ALIGN
    rows = max(kernel.TILE_BYTES // (8 * max(count, 1)) // align * align,
               align)
    for i0 in range(0, count, rows):
        i1 = min(i0 + rows, count)
        products = (a[i0:i1, p] @ a[i0:, p].T for p in range(spec.n))
        G[i0:i1, i0:] = kernel._kernel_values(spec, products)
    kernel._mirror_upper(G)
    return G


def pack(a, block: int) -> SymmetricGram:
    """The symmetric matrix a as a `SymmetricGram` of ``block``-row blocks."""
    g = SymmetricGram(len(a), block)
    for r0, r1, B in g._blocks:
        B[...] = a[r0:r1, r0:]
    return g


def unpack(g) -> np.ndarray:
    """A new dense array holding the blocks of the packed g at rows r0:r1,
    columns r0:ell, and zeros below them; g is not changed. For a packed
    symmetric matrix that is its upper triangle (and each block's whole
    diagonal square); for a factor from `krr.cho_factor` it is R with
    each diagonal block R_ii replaced by R_ii^-T."""
    ell = g.shape[0]
    a = np.zeros((ell, ell))
    for r0, r1, B in g._blocks:
        a[r0:r1, r0:] = B
    return a


def strided_cho_factor(g: SymmetricGram) -> SymmetricGram:
    """`krr.cho_factor` by its earlier loop, which subtracts each earlier
    block's product from the strided chunk of the block itself; the
    operations and their order are the same, so the factor is too."""
    width = max((r1 - r0 for r0, r1, _ in g._blocks), default=0)
    scratch = np.empty(width * min(krr.PANEL_COLS, g.shape[0]))

    def chunks(B, start):
        for c0 in range(start, B.shape[1], krr.PANEL_COLS):
            c1 = min(c0 + krr.PANEL_COLS, B.shape[1])
            yield c0, c1, scratch[:len(B) * (c1 - c0)].reshape(len(B), -1)

    for i, (r0, r1, B) in enumerate(g._blocks):
        w = r1 - r0
        for c0, c1, T in chunks(B, 0):
            for q0, _, Q in g._blocks[:i]:
                np.matmul(Q[:, r0 - q0:r1 - q0].T,
                          Q[:, r0 - q0 + c0:r0 - q0 + c1], out=T)
                B[:, c0:c1] -= T
        inverse = np.linalg.inv(np.linalg.cholesky(B[:, :w]))
        for c0, c1, T in chunks(B, w):
            B[:, c0:c1] = np.matmul(inverse, B[:, c0:c1], out=T)
        B[:, :w] = inverse
    return g


def peak_rise(lines, call):
    """Bytes the peak resident memory of a fresh interpreter rises by
    while it runs ``call``, after running ``lines``.

    The peak is the process's VmHWM, not ru_maxrss: Linux starts the
    ru_maxrss of a process at the resident size of the one that spawned
    it, here the test runner, which would hide the rise."""
    script = "\n".join([
        *lines,
        "def peak():",  # KiB
        "    with open('/proc/self/status') as fh:",
        "        return next(int(line.split()[1]) for line in fh",
        "                    if line.startswith('VmHWM:'))",
        "before = peak()",
        call,
        "print((peak() - before) * 1024)",
    ])
    return int(run_fresh(script, OPENBLAS_NUM_THREADS="1"))


def run_fresh(script: str, **env) -> str:
    """What a fresh interpreter, with this harmonica importable and
    ``env`` added to the environment, prints running ``script``; its
    exit status must be 0."""
    src = str(Path(harmonica.__file__).resolve().parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def gathered_lambda_table(f1, d: int, k_max: int, a_max: int,
                          s_tol: float = 1e-12):
    """(lam, tail) of `spectrum.lambda_table` by its earlier loop, which
    gathers each log-gamma term with an index array per degree k and
    compacts every parity subsequence with a boolean mask."""
    order = f1.order
    log_pref_base = math.log(sphere_surface(d - 1)) + math.lgamma((d - 1) / 2.0)
    lam = np.zeros((k_max + 1, a_max + 1))
    tail = np.zeros((k_max + 1, a_max + 1))
    powers = power_table(f1, order)
    b = np.stack([powers(alpha).asarray() for alpha in range(a_max + 1)])
    with np.errstate(divide="ignore"):
        log_b = np.log(b)
    lg = _lgamma_halves(2 * order + d)
    for k in range(k_max + 1):
        s = np.arange((order - k) // 2 + 1)
        m = k + 2 * s
        log_c = lg[2 * m + 2] - lg[4 * s + 2] + lg[2 * s + 1] - lg[m + k + d]
        log_pref = log_pref_base - (k + 1) * math.log(2.0)
        for alpha in range(a_max + 1):
            pos = b[alpha, k::2] > 0.0
            if not pos.any():
                continue
            truncated = bool(pos[-1])
            logt = (log_b[alpha, k::2] + log_c)[pos]
            top = logt.max()
            logsum = top + math.log(np.exp(logt - top).sum())
            lam[k, alpha] = math.exp(log_pref + logsum)
            t_rel = math.exp(logt[-1] - logsum)
            tail[k, alpha] = t_rel if truncated else 0.0
            if truncated and (logt.size < 2 or logt[-1] >= logt[-2]
                              or t_rel >= s_tol):
                raise ConvergenceError(f"k={k}, alpha={alpha}")
    return lam, tail


def eigenvalue_windows(table, r: float, alphas=(1, 2, 3, 4),
                       m_max: int = 50) -> dict:
    """Normalized sequences behind the eigenvalue-window bounds of a
    `spectrum.LambdaTable`.

    upper[alpha][m] = lam[m][alpha] / ((m+1)^{alpha-1} r^m)   (bounded above)
    lower[alpha][m] = lam[m][alpha] / ((r/4)^m)               (bounded below)
    """
    if table.k_max < m_max:
        raise TruncationError(f"table k_max {table.k_max} < m_max {m_max}")
    m = np.arange(m_max + 1, dtype=float)
    out = {}
    for alpha in alphas:
        if alpha > table.a_max:
            raise TruncationError(f"alpha {alpha} beyond table")
        lam = table.lam[: m_max + 1, alpha]
        upper = lam / ((m + 1.0) ** (alpha - 1) * r ** m)
        lower = lam / ((r / 4.0) ** m)
        out[alpha] = {
            "upper_seq": upper,
            "lower_seq": lower,
            "upper_window_ratio": float(upper.max() / upper.min()),
            "lower_window_ratio": float(lower.max() / lower.min()),
        }
    return out
