"""Construction and evaluation of the multi-layer kernel.

The kernel is g(sum_i f1(<x_i, y_i>)) with f1 the innermost majorant series
and g the composed chain of the outer majorants. `eval_kernel`, `gram`,
`cross_gram` and `KernelSpec.diag_value` all evaluate it through one
function, `_kernel_values`, which takes the inner products patch by patch.
Its Horner passes (`eval_series`) stop at each series' last nonzero
coefficient, so padding f1 or g to a larger order changes no bit of any
value. Gram matrices take each patch's inner products from one matrix
product, never from an (a, b, n) tensor. The spectral route lives in
`spectrum` and the two are cross-checked by the Mercer reconstruction tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .activations import ActivationSpec, majorant_series
from .errors import StructuralError
from .image import PatchedImage, stack_patches
from .taylor import (CoeffSeries, DEFAULT_L_MAX, compose, eval_series,
                     identity_series, series_from)


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
        return cls(k_max=int(doc.get("K_max", 20)),
                   a_max=int(doc.get("A_max", 16)),
                   q_max=int(doc.get("Q_max", 64)),
                   s_tol=float(doc.get("s_tol", 1e-12)),
                   series_order=int(doc.get("order", 64)),
                   l_max=int(doc.get("L_max", DEFAULT_L_MAX)))


@dataclass(frozen=True)
class KernelSpec:
    """Inner series f1, composed outer series g, and the size/degree data."""

    f1: CoeffSeries
    g: CoeffSeries
    n: int
    d: int
    D: float  # outer polynomial degree; math.inf when non-polynomial
    trunc: TruncationConfig = field(default_factory=TruncationConfig)

    def __post_init__(self):
        if not (self.f1.nonneg and self.g.nonneg):
            raise ValueError("kernel series must be nonnegative")
        if self.d < 2 or self.n < 1:
            raise ValueError("need d >= 2 and n >= 1")
        if not (self.D == math.inf or (float(self.D).is_integer() and self.D >= 0)):
            raise ValueError("D must be a nonnegative integer or inf")

    @property
    def d_star(self) -> int:
        """Maximal interaction order min(D, n)."""
        return int(min(self.D, self.n))

    @property
    def q_cap(self) -> int:
        """Largest outer power retained in spectral sums."""
        if self.D == math.inf:
            return min(self.trunc.q_max, self.trunc.a_max, self.g.order)
        return int(self.D)

    def diag_value(self) -> float:
        """K(x, x) = g(n * f1(1)) for any unit-patch input."""
        return float(_kernel_values(self, np.ones(self.n)))


def build_kernel(acts: list, n: int, d: int,
                 trunc: TruncationConfig | None = None) -> KernelSpec:
    """Assemble the kernel for activations [sigma_1, ..., sigma_N].

    f1 is the majorant of sigma_1; g composes the majorants of the rest
    (identity series when N = 1). D is exact whenever every outer majorant
    is a polynomial, else inf.
    """
    if not acts:
        raise StructuralError("need at least one activation")
    trunc = trunc or TruncationConfig()
    order = trunc.series_order
    f1 = majorant_series(acts[0], order)
    outer = [majorant_series(a, trunc.q_max) for a in acts[1:]]
    if not outer:
        g = identity_series(order=trunc.q_max)
        D = 1.0
    else:
        g = outer[0]
        for nxt in outer[1:]:
            g = compose(nxt, g, trunc.q_max, l_max=trunc.l_max)
        D = _composed_degree(acts[1:])
    return KernelSpec(f1=f1, g=g, n=n, d=d, D=D, trunc=trunc)


def _activation_degree(a: ActivationSpec) -> float:
    """Exact polynomial degree of the majorant, or inf."""
    if a.kind in ("exp", "erf_sigmoid", "smooth_hinge", "geometric"):
        return math.inf
    if a.kind == "square":
        return 2.0
    if a.kind == "identity":
        return 1.0
    last = max((i for i, c in enumerate(a.coeffs) if c != 0.0), default=None)
    return 0.0 if last is None else float(last)


def _composed_degree(acts: list) -> float:
    prod = 1.0
    for a in acts:
        dg = _activation_degree(a)
        if dg == 0.0:
            return 0.0  # a constant factor collapses the chain
        prod *= dg
    return prod


def _kernel_values(spec: KernelSpec, products):
    """g(sum_p f1(t_p)) from the inner products t_p of each patch p.

    ``products`` yields one array (or scalar) per patch, all of one shape;
    an (n, ...) array qualifies. Inner products are clipped to [-1, 1].
    """
    s = 0.0
    for t in products:
        s = s + eval_series(spec.f1, np.clip(t, -1.0, 1.0))
    return eval_series(spec.g, s)


def eval_kernel(spec: KernelSpec, x: PatchedImage, y: PatchedImage) -> float:
    for z in (x, y):
        if z.n != spec.n or z.d != spec.d:
            raise StructuralError(
                f"input ({z.n},{z.d}) does not match kernel ({spec.n},{spec.d})")
    return float(_kernel_values(spec, np.einsum("nd,nd->n", x.patches, y.patches)))


def _stack(spec: KernelSpec, xs: list) -> np.ndarray:
    a = stack_patches(xs)
    if a.shape[1:] != (spec.n, spec.d):
        raise StructuralError("inputs do not match kernel patch layout")
    return a


def gram(spec: KernelSpec, xs: list) -> np.ndarray:
    """Symmetric Gram matrix G[i][j] = K(xs[i], xs[j])."""
    a = _stack(spec, xs)
    G = _kernel_values(spec, (a[:, p] @ a[:, p].T for p in range(spec.n)))
    return 0.5 * (G + G.T)  # exact symmetry whatever order BLAS sums in


def cross_gram(spec: KernelSpec, xs: list, ys: list) -> np.ndarray:
    """K(xs[i], ys[j]) for all pairs, one matrix product per patch."""
    a, b = _stack(spec, xs), _stack(spec, ys)
    return _kernel_values(spec, (a[:, p] @ b[:, p].T for p in range(spec.n)))


def constant_kernel(value: float, n: int, d: int,
                    trunc: TruncationConfig | None = None) -> KernelSpec:
    """K identically ``value``; used by rank-one sanity checks."""
    trunc = trunc or TruncationConfig()
    f1 = series_from([0.0, 1.0], order=trunc.series_order, nonneg=True)
    g = series_from([float(value)], order=trunc.q_max, nonneg=True)
    return KernelSpec(f1=f1, g=g, n=n, d=d, D=0.0, trunc=trunc)
