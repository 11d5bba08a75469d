"""Activation catalog and majorant series.

Each activation sigma gets the nonnegative series with coefficients
|sigma^(t)(0)| / t!, the kernel-side surrogate of the activation. The two
integral-form activations have closed-form Taylor coefficients:

  erf sigmoid   0.5 * (1 + erf(sqrt(pi) x)):
      c_0 = 1/2,  c_{2n+1} = (-1)^n pi^n / (n! (2n+1)),  even (>0) vanish.
  smooth hinge  x * erf(x) + exp(-pi x^2) / (2 pi):
      c_0 = 1/(2 pi),  odd vanish,
      c_{2n} = (-1)^{n-1} [ (2/sqrt(pi)) / ((n-1)! (2n-1)) - pi^{n-1} / (2 n!) ].

Both are cross-checked against a finite-difference oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedActivationError
from .taylor import (CoeffSeries, DEFAULT_ORDER, exp_series, geometric_series,
                     identity_series, series_from)

KINDS = ("exp", "square", "poly", "erf_sigmoid", "smooth_hinge", "custom",
         "identity", "geometric")


@dataclass(frozen=True)
class ActivationSpec:
    """An activation function by name, plus coefficients where required.

    ``poly``/``custom`` carry an explicit coefficient list (poly is meant for
    genuine polynomials, custom for arbitrary finite coefficient vectors such
    as truncated geometric series). ``identity`` is sugar for poly [0, 1],
    ``geometric`` for custom coefficients ratio^m.
    """

    kind: str
    coeffs: tuple = field(default=())
    ratio: float = field(default=0.0)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnsupportedActivationError(f"unknown activation {self.kind!r}")
        if self.kind in ("poly", "custom"):
            c = tuple(float(v) for v in self.coeffs)
            if not c or not all(math.isfinite(v) for v in c):
                raise ValueError(f"{self.kind} activation needs finite coefficients")
            object.__setattr__(self, "coeffs", c)
        if self.kind == "geometric" and not 0.0 < self.ratio < 1.0:
            raise ValueError("geometric activation needs ratio in (0, 1)")


def activation(kind: str, coeffs=None, ratio=None) -> ActivationSpec:
    return ActivationSpec(kind, coeffs=tuple(coeffs or ()),
                          ratio=0.0 if ratio is None else float(ratio))


def _erf_sigmoid_coeffs(order: int) -> list[float]:
    # log-gamma form: pi^n and n! overflow as floats past n = 170, while the
    # coefficient itself just underflows to 0.0
    c = [0.0] * (order + 1)
    c[0] = 0.5
    n = 0
    while 2 * n + 1 <= order:
        c[2 * n + 1] = (-1.0) ** n * math.exp(
            n * math.log(math.pi) - math.lgamma(n + 1) - math.log(2 * n + 1))
        n += 1
    return c


def _smooth_hinge_coeffs(order: int) -> list[float]:
    c = [0.0] * (order + 1)
    c[0] = 1.0 / (2.0 * math.pi)
    n = 1
    while 2 * n <= order:
        a = math.exp(math.log(2.0 / math.sqrt(math.pi)) - math.lgamma(n)
                     - math.log(2 * n - 1))
        b = math.exp((n - 1) * math.log(math.pi) - math.lgamma(n + 1)
                     - math.log(2.0))
        c[2 * n] = (-1.0) ** (n - 1) * (a - b)
        n += 1
    return c


def taylor_coeffs(spec: ActivationSpec, order: int) -> CoeffSeries:
    """Signed Taylor coefficients of sigma at 0 (may be negative), up to
    ``order`` (the identity keeps its x), with the activation's degree."""
    if spec.kind == "exp":
        return exp_series(order)
    if spec.kind == "square":
        return series_from([0.0, 0.0, 1.0], order=order)
    if spec.kind == "identity":
        return identity_series(order)
    if spec.kind in ("poly", "custom"):
        return series_from(spec.coeffs, order=order)
    if spec.kind == "geometric":
        return geometric_series(spec.ratio, order)
    if spec.kind == "erf_sigmoid":
        return series_from(_erf_sigmoid_coeffs(order), degree=math.inf)
    if spec.kind == "smooth_hinge":
        return series_from(_smooth_hinge_coeffs(order), degree=math.inf)
    raise UnsupportedActivationError(spec.kind)


def majorant_series(spec: ActivationSpec, order: int = DEFAULT_ORDER) -> CoeffSeries:
    """Nonnegative series |sigma^(t)(0)|/t! x^t truncated at ``order``, of
    the activation's degree: that of its coefficient list for ``poly`` and
    ``custom``, 2 for ``square``, 1 for ``identity``, inf for the rest. A
    polynomial of higher degree than ``order`` is not whole."""
    signed = taylor_coeffs(spec, order)
    return series_from([abs(v) for v in signed.coeffs], order=order,
                       nonneg=True, degree=signed.degree)


# math.erf elementwise: numpy has no erf, and scipy's costs a ~0.3 s import
_erf = np.vectorize(math.erf, otypes=[float])


def evaluate(spec: ActivationSpec, x):
    """sigma(x) itself (not the majorant); vectorized over numpy arrays."""
    x = np.asarray(x, dtype=float)
    if spec.kind == "exp":
        out = np.exp(x)
    elif spec.kind == "square":
        out = x * x
    elif spec.kind == "identity":
        out = x + 0.0
    elif spec.kind in ("poly", "custom"):
        out = np.polynomial.polynomial.polyval(x, np.asarray(spec.coeffs))
    elif spec.kind == "geometric":
        out = 1.0 / (1.0 - spec.ratio * x)
    elif spec.kind == "erf_sigmoid":
        out = 0.5 * (1.0 + _erf(math.sqrt(math.pi) * x))
    elif spec.kind == "smooth_hinge":
        out = x * _erf(x) + np.exp(-math.pi * x * x) / (2.0 * math.pi)
    else:
        raise UnsupportedActivationError(spec.kind)
    return out if out.shape else float(out)
