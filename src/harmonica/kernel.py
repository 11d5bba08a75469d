"""Construction and evaluation of the multi-layer kernel.

The kernel is g(sum_i f1(<x_i, y_i>)) with f1 the innermost majorant series
and g the composed chain of the outer majorants. `eval_kernel`, `gram`,
`cross_gram` and `KernelSpec.diag_value` all evaluate it through one
function, `_kernel_values`, which takes the inner products patch by patch.
`eval_kernel` takes one pair of (n, d) images, or two (count, n, d) batches
that pair x[i] with y[i]; a batch's inner products come from one einsum,
and one pair is a batch of one. The Horner passes (`eval_series`) stop at
each series' last nonzero coefficient, so padding f1 or g to a larger order
changes no bit of any value. Gram matrices are built one tile of rows at a
time: a tile's per-patch inner products come from one matrix product into a
scratch tile of about TILE_BYTES, the clip, both Horner passes and the
patch sum run in place in two more such tiles, and the finished tile is
written into the result once. Peak memory is the result plus three tiles,
never an (a, b, n) tensor or a whole-matrix temporary. `gram` computes only
the tiles from the diagonal rightward and returns a `SymmetricGram`: the
upper row blocks, back to back in one array of exactly their size. A
product with a block of columns reads them alone, so a Krylov eigensolver
keeps about half a Gram resident, and `krr.cho_factor` factors the blocks
where they lie; `SymmetricGram.dense` (or ``np.asarray``) copies them into
a new ell x ell array, copies the strict upper triangle into the lower one,
so the dense Gram is exactly symmetric, and drops the packed array. The
spectral route lives in `spectrum` and the two are cross-checked by the
Mercer reconstruction tests.

A polynomial layer cut short by its series is another kernel, and only this
module refuses one (TruncationError), reading each series' own degree
(`CoeffSeries.degree`): `build_kernel` a first layer past truncation.order,
an outer one past Q_max or one composed onto g past L_max; `KernelSpec` a
polynomial f1 or g that its series does not hold whole (g's degree is the
outer degree D), `q_cap` a D past A_max; `TruncationConfig` an order or
Q_max past MAX_ORDER.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .activations import majorant_series
from .errors import StructuralError, TruncationError
from .taylor import (CoeffSeries, DEFAULT_L_MAX, check_order, compose,
                     eval_series, identity_series)

log = logging.getLogger(__name__)

# Bytes of each of the three scratch tiles a gram or cross_gram call
# allocates: a tile holds TILE_BYTES // (8 * columns) rows, rounded down to
# a multiple of TILE_ALIGN and at least TILE_ALIGN (8 rows of a 2000-column
# Gram). Measured on one OpenBLAS thread of a 2-core x86 machine, 256 KiB
# tiles were no faster and left the learning curve's peak resident memory
# 0.3 MiB above that of 128 KiB tiles, 512 KiB tiles 1.1 MiB above.
TILE_BYTES = 128 * 1024
# BLAS kernels work on panels of a few rows and columns, and a row or column
# left over at a panel's edge may be summed in another order. Tiles that
# start on a multiple of 8 rows (and, in gram, 8 columns) keep the panels of
# the whole-matrix product, which makes the products, and so the Grams, of
# the benchmark configurations bitwise those of one whole-matrix product.
TILE_ALIGN = 8
# Rows per block of a packed Gram (`SymmetricGram`), rounded down to a
# multiple of the fill tile's rows and at least one tile.
GRAM_BLOCK = 128


@dataclass(frozen=True)
class TruncationConfig:
    """Caps shared by the spectral machinery.

    k_max / a_max bound the lambda table, q_max bounds the outer expansion,
    s_tol stops the eigenvalue s-series, series_order is the coefficient
    truncation degree and l_max the composition depth.
    """

    k_max: int = 20
    a_max: int = 16
    q_max: int = 64
    s_tol: float = 1e-12
    series_order: int = 64
    l_max: int = DEFAULT_L_MAX

    @classmethod
    def from_dict(cls, doc: dict) -> "TruncationConfig":
        """From a config's ``truncation`` object; a missing key keeps the
        default, and a given value takes its default's type (the schema
        accepts 3.0 as an integer)."""
        fields = {"K_max": "k_max", "A_max": "a_max", "Q_max": "q_max",
                  "s_tol": "s_tol", "order": "series_order", "L_max": "l_max"}
        return cls(**{f: type(getattr(cls, f))(doc[key])
                      for key, f in fields.items() if key in doc})

    def __post_init__(self):
        check_order(self.series_order, "truncation.order")
        check_order(self.q_max, "truncation.Q_max")


def _refuse_past(degree: float, cap: int, key: str, what: str) -> None:
    """Refuse a finite degree past the cap that ``truncation.<key>`` sets."""
    if math.isfinite(degree) and degree > cap:
        raise TruncationError(
            f"{what} has degree {degree:.0f}, above truncation.{key}={cap}; "
            f"raise truncation.{key}")


@dataclass(frozen=True)
class KernelSpec:
    """Inner series f1, composed outer series g, and the size data."""

    f1: CoeffSeries
    g: CoeffSeries
    n: int
    d: int
    trunc: TruncationConfig = field(default_factory=TruncationConfig)

    def __post_init__(self):
        if not (self.f1.nonneg and self.g.nonneg):
            raise ValueError("kernel series must be nonnegative")
        if self.d < 2 or self.n < 1:
            raise ValueError("need d >= 2 and n >= 1")
        _refuse_past(self.f1.degree, self.f1.order, "order", "f1")
        _refuse_past(self.D, self.g.order, "Q_max", "the outer composition")

    @property
    def D(self) -> float:
        """Outer polynomial degree, g's; math.inf when non-polynomial."""
        return self.g.degree

    @property
    def d_star(self) -> int:
        """Maximal interaction order min(D, n)."""
        return int(min(self.D, self.n))

    @property
    def q_cap(self) -> int:
        """Largest outer power retained in spectral sums; refuses D > A_max."""
        if self.D == math.inf:
            return min(self.trunc.q_max, self.trunc.a_max, self.g.order)
        _refuse_past(self.D, self.trunc.a_max, "A_max", "the outer composition")
        return int(self.D)

    def diag_value(self) -> float:
        """K(x, x) = g(n * f1(1)) for any unit-patch input."""
        return float(_kernel_values(self, np.ones(self.n)))


def build_kernel(acts: list, n: int, d: int,
                 trunc: TruncationConfig | None = None) -> KernelSpec:
    """Assemble the kernel for activations [sigma_1, ..., sigma_N].

    f1 is the majorant of sigma_1; g composes the majorants of the rest
    (identity series when N = 1), so D, the degree of g, is exact whenever
    every outer majorant is a polynomial, else inf. Refusals: see the
    module docstring.
    """
    if not acts:
        raise StructuralError("need at least one activation")
    trunc = trunc or TruncationConfig()
    series = [majorant_series(a, trunc.series_order if i == 0 else trunc.q_max)
              for i, a in enumerate(acts)]
    caps = ({"order": trunc.series_order}, {"Q_max": trunc.q_max},
            {"Q_max": trunc.q_max, "L_max": trunc.l_max})
    for i, (a, s) in enumerate(zip(acts, series)):
        for key, cap in caps[min(i, 2)].items():
            _refuse_past(s.degree, cap, key, f"layer {i + 1} ({a.kind})")
    f1, outer = series[0], series[1:]
    g = outer[0] if outer else identity_series(order=trunc.q_max)
    for nxt in outer[1:]:
        g = compose(nxt, g, trunc.q_max, l_max=trunc.l_max)
    return KernelSpec(f1=f1, g=g, n=n, d=d, trunc=trunc)


def _kernel_values(spec: KernelSpec, products, out=None):
    """g(sum_p f1(t_p)) from the inner products t_p of each patch p.

    ``products`` yields one array (or scalar) per patch, all of one shape;
    an (n, ...) array qualifies. Inner products are clipped to [-1, 1].
    With ``out``, a pair (s, f) of float arrays of that shape, everything
    runs in place: each product array is clipped where it lies, f takes
    each f1 pass and then g, s the patch sum, and f is returned. The
    operations, and so every value, are those of the allocating form.
    """
    s, f = (None, None) if out is None else out
    total = 0.0
    for t in products:
        t = np.clip(t, -1.0, 1.0, out=None if out is None else t)
        total = np.add(total, eval_series(spec.f1, t, out=f), out=s)
    return eval_series(spec.g, total, out=f)


def eval_kernel(spec: KernelSpec, x, y):
    """K(x, y) for two (n, d) patched images, as a float; or, for two
    (count, n, d) batches of pairs, the (count,) array of K(x[i], y[i]).

    A batch takes one einsum and one `_kernel_values` pass; one pair is a
    batch of one.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim == 2:
        return float(eval_kernel(spec, x[None], y[None])[0])
    x, y = _pair_batches(spec, x, y)
    return _kernel_values(spec, np.einsum("cnd,cnd->nc", x, y))


def _batch(spec: KernelSpec, xs) -> np.ndarray:
    """``xs`` as a (count, n, d) float array of the kernel's layout;
    StructuralError if it is not one."""
    a = np.asarray(xs, dtype=float)
    if a.ndim != 3 or a.shape[1:] != (spec.n, spec.d):
        raise StructuralError(
            f"batch {a.shape} does not match kernel (count,{spec.n},{spec.d})")
    return a


def _pair_batches(spec: KernelSpec, xs, ys) -> tuple:
    """Two `_batch` arrays that pair xs[i] with ys[i]; StructuralError if
    their counts differ."""
    a, b = _batch(spec, xs), _batch(spec, ys)
    if len(a) != len(b):
        raise StructuralError(
            f"pair batches of {len(a)} and {len(b)} differ in count")
    return a, b


def _tile_rows(cols: int) -> int:
    """Rows of a fill tile over ``cols`` columns: TILE_BYTES // (8 cols),
    rounded down to a multiple of TILE_ALIGN and at least TILE_ALIGN."""
    rows = TILE_BYTES // (8 * max(cols, 1)) // TILE_ALIGN * TILE_ALIGN
    return max(rows, TILE_ALIGN)


def _tiles(spec: KernelSpec, a, b, upper: bool):
    """K(a[i], b[j]) one tile of rows at a time.

    Yields (i0, i1, T) with T = K(a[i0:i1], b[j0:]) in a scratch tile that
    the next tile overwrites; j0 is 0, or with ``upper`` (b is a) the
    tile's first row i0, so that the tiles cover the upper triangle.
    """
    count, cols = len(a), len(b)
    rows = _tile_rows(cols)
    scratch = [np.empty(min(rows, count) * cols) for _ in range(3)]
    starts = range(0, count, rows)
    for i0 in starts:
        i1 = min(i0 + rows, count)
        j0 = i0 if upper else 0
        shape = (i1 - i0, cols - j0)
        t, s, f = (x[:shape[0] * shape[1]].reshape(shape) for x in scratch)
        products = (np.matmul(a[i0:i1, p], b[j0:, p].T, out=t)
                    for p in range(spec.n))
        yield i0, i1, _kernel_values(spec, products, out=(s, f))
    log.info("%s %dx%d: %d rows per tile, %d tiles, %d scratch bytes",
             "gram" if upper else "cross_gram", count, cols, rows,
             len(starts), sum(x.nbytes for x in scratch))


def _mirror_upper(G) -> None:
    """Copy the strict upper triangle of the square G into the lower one,
    in strips of 128 rows (a strip that narrow copies at a quarter of the
    cost of tile-wide strips of 8 rows, without a temporary)."""
    strip = 128
    lower = np.tri(strip, strip, -1, dtype=bool)
    for i0 in range(0, len(G), strip):
        i1 = i0 + strip
        G[i1:, i0:i1] = G[i0:i1, i1:].T
        block = G[i0:i1, i0:i1]
        np.copyto(block, block.T, where=lower[:len(block), :len(block)])


class SymmetricGram:
    """A symmetric ell x ell matrix stored as its upper row blocks.

    Block k holds rows r0:r1 and columns r0:ell of the matrix, C-ordered,
    with its leading (r1 - r0) square full. The blocks lie back to back in
    one array of exactly their total size, about ell^2 / 2 floats: numpy
    advises huge pages for large arrays, so blocks that started partway
    into a larger buffer would make the whole 2 MiB page under their start
    resident. ``g @ X`` multiplies block by block.

    `dense` allocates the full ell x ell array, copies the blocks into it,
    mirrors them, rebinds the blocks as views of it and drops the packed
    array. ``np.asarray(g)``, and so any numpy function given ``g``, calls
    it: the conversion replaces the object's storage with a new dense
    array, and two threads must not convert one object at once. After it,
    the blocks hold the same values, so ``g @ X`` does the same products as
    before. The object is not an ndarray: it has ``shape`` and ``@``, and
    nothing else of the array interface.
    """

    def __init__(self, ell: int, block: int):
        self.shape = (ell, ell)
        self._dense = None
        spans = [(r0, min(r0 + block, ell)) for r0 in range(0, ell, block)]
        packed = np.empty(sum((r1 - r0) * (ell - r0) for r0, r1 in spans))
        self._blocks = []
        at = 0
        for r0, r1 in spans:
            size = (r1 - r0) * (ell - r0)
            self._blocks.append(
                (r0, r1, packed[at:at + size].reshape(r1 - r0, ell - r0)))
            at += size

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for r0, r1, B in self._blocks:
            out[r0:r1] += B @ x[r0:]
            out[r1:] += B[:, r1 - r0:].T @ x[r0:r1]
        return out

    def __array__(self, dtype=None, copy=None):
        a = np.asarray(self.dense(), dtype=dtype)
        return a.copy() if copy else a

    def dense(self) -> np.ndarray:
        """The full, exactly symmetric matrix; a second call returns the
        same array.

        The first call copies each block to rows r0:r1, columns r0:ell of
        a new ell x ell array, mirrors the strict upper triangle down and
        rebinds the blocks as views of the new array, which releases the
        packed one. While it runs both are held, about 1.5 ell^2 floats.
        """
        if self._dense is None:
            ell = self.shape[0]
            G = np.empty((ell, ell))
            for r0, r1, B in self._blocks:
                G[r0:r1, r0:] = B
            _mirror_upper(G)
            self._dense = G
            self._blocks = [(r0, r1, G[r0:r1, r0:])
                            for r0, r1, _ in self._blocks]
        return self._dense


def gram(spec: KernelSpec, xs) -> SymmetricGram:
    """Symmetric Gram matrix G[i][j] = K(xs[i], xs[j]) of a (count, n, d)
    batch, packed as a `SymmetricGram`. ``np.asarray`` (or
    `SymmetricGram.dense`) replaces its storage with the dense array, once
    and from one thread; later products give the same bits.

    The matrix is stored in row blocks of about GRAM_BLOCK rows, a
    multiple of the fill tile's rows, so each block is filled by whole
    tiles that run from the diagonal rightward. Each block's diagonal
    square is then mirrored, and the matrix is exactly symmetric.
    """
    a = _batch(spec, xs)
    ell = len(a)
    rows = _tile_rows(ell)
    block = rows * max(1, GRAM_BLOCK // rows)
    g = SymmetricGram(ell, block)
    for i0, i1, T in _tiles(spec, a, a, upper=True):
        r0, _, B = g._blocks[i0 // block]
        B[i0 - r0:i1 - r0, i0 - r0:] = T
    for r0, r1, B in g._blocks:
        _mirror_upper(B[:, :r1 - r0])
    return g


def cross_gram(spec: KernelSpec, xs, ys) -> np.ndarray:
    """K(xs[i], ys[j]) for all pairs of two batches."""
    a, b = _batch(spec, xs), _batch(spec, ys)
    G = np.empty((len(a), len(b)))
    for i0, i1, T in _tiles(spec, a, b, upper=False):
        G[i0:i1] = T
    return G

