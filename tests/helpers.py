"""Test-only oracles and fixtures, built from library functions, that no
harmonica command needs."""

import numpy as np

from harmonica import kernel
from harmonica.harmonics import _jacobi_nodes, zonal_poly_table
from harmonica.kernel import KernelSpec, SymmetricGram, TruncationConfig, gram
from harmonica.taylor import series_from


def rls_objective(spec, data, fit) -> float:
    """(1/l) sum residual^2 + lambda c^T G c at the fitted coefficients."""
    G = np.asarray(gram(spec, data.xs))
    resid = data.ys - G @ fit.coeffs
    return float(np.mean(resid ** 2)
                 + fit.lam * fit.coeffs @ G @ fit.coeffs)


def constant_kernel(value: float, n: int, d: int,
                    trunc: TruncationConfig | None = None) -> KernelSpec:
    """K identically ``value``; used by rank-one sanity checks."""
    trunc = trunc or TruncationConfig()
    f1 = series_from([0.0, 1.0], order=trunc.series_order, nonneg=True)
    g = series_from([float(value)], order=trunc.q_max, nonneg=True)
    return KernelSpec(f1=f1, g=g, n=n, d=d, D=0.0, trunc=trunc)


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
    diagonal square), for a factor from `krr.cho_factor` it is R."""
    ell = g.shape[0]
    a = np.zeros((ell, ell))
    for r0, r1, B in g._blocks:
        a[r0:r1, r0:] = B
    return a
