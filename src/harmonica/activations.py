"""Activation catalog and majorant series.

Each activation sigma gets the nonnegative series with coefficients
|sigma^(t)(0)| / t!, the kernel-side surrogate of the activation. Each kind
is declared once, in ``KINDS``'s order, with the one parameter it takes:
``coeffs`` for ``poly`` and ``custom``, ``ratio`` for ``geometric``, none
for the rest. ``square`` and ``identity`` are the polynomials (0, 0, 1) and
(0, 1), so the four polynomial kinds share one path through
``taylor_coeffs`` and ``evaluate``. The two integral-form activations have
closed-form Taylor coefficients:

  erf sigmoid   0.5 * (1 + erf(sqrt(pi) x)):
      c_0 = 1/2,  c_{2n+1} = (-1)^n pi^n / (n! (2n+1)),  even (>0) vanish.
  smooth hinge  x * erf(x) + exp(-pi x^2) / (2 pi):
      c_0 = 1/(2 pi),  odd vanish,
      c_{2n} = (-1)^{n-1} [ (2/sqrt(pi)) / ((n-1)! (2n-1)) - pi^{n-1} / (2 n!) ].

Both are cross-checked against a finite-difference oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedActivationError
from .taylor import (CoeffSeries, DEFAULT_ORDER, eval_series, exp_series,
                     geometric_series, series_from)

# each kind with the one parameter it takes, or None
_PARAMETER = {"exp": None, "square": None, "poly": "coeffs",
              "erf_sigmoid": None, "smooth_hinge": None, "custom": "coeffs",
              "identity": None, "geometric": "ratio"}
KINDS = tuple(_PARAMETER)
# the polynomial kinds that take no coefficients, and the ones they stand for
_FIXED_COEFFS = {"square": (0.0, 0.0, 1.0), "identity": (0.0, 1.0)}


@dataclass(frozen=True)
class ActivationSpec:
    """An activation function by name, plus the one parameter its kind takes.

    ``poly``/``custom`` carry an explicit coefficient list (poly is meant for
    genuine polynomials, custom for arbitrary finite coefficient vectors such
    as truncated geometric series), ``geometric`` the ratio of 1/(1 - r x).
    A parameter the kind does not take is refused (ValueError), as is a
    missing or out-of-range one. ``polynomial`` holds the coefficients of
    the four polynomial kinds: ``square`` is (0, 0, 1), ``identity`` (0, 1).
    """

    kind: str
    coeffs: tuple | None = None
    ratio: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnsupportedActivationError(f"unknown activation {self.kind!r}")
        takes = _PARAMETER[self.kind]
        for name in ("coeffs", "ratio"):
            if name != takes and getattr(self, name) is not None:
                raise ValueError(f"{self.kind} activation takes no {name}")
        if takes == "coeffs":
            c = tuple(float(v) for v in self.coeffs or ())
            if not c or not all(math.isfinite(v) for v in c):
                raise ValueError(f"{self.kind} activation needs finite coefficients")
            object.__setattr__(self, "coeffs", c)
        if takes == "ratio" and not (self.ratio is not None
                                     and 0.0 < self.ratio < 1.0):
            raise ValueError("geometric activation needs ratio in (0, 1)")

    @property
    def polynomial(self) -> tuple | None:
        """Coefficients, lowest degree first, of a polynomial kind; None
        for the kinds that are not polynomials."""
        return _FIXED_COEFFS.get(self.kind, self.coeffs)


def activation(kind: str, coeffs=None, ratio=None) -> ActivationSpec:
    return ActivationSpec(kind, coeffs=None if coeffs is None else tuple(coeffs),
                          ratio=None if ratio is None else float(ratio))


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
    ``order``, with the activation's degree."""
    if spec.polynomial is not None:
        return series_from(spec.polynomial, order=order)
    if spec.kind == "exp":
        return exp_series(order)
    if spec.kind == "geometric":
        return geometric_series(spec.ratio, order)
    if spec.kind == "erf_sigmoid":
        return series_from(_erf_sigmoid_coeffs(order), degree=math.inf)
    return series_from(_smooth_hinge_coeffs(order),  # smooth_hinge
                       degree=math.inf)


def majorant_series(spec: ActivationSpec, order: int = DEFAULT_ORDER) -> CoeffSeries:
    """Nonnegative series |sigma^(t)(0)|/t! x^t truncated at ``order``, of
    the activation's degree: a polynomial kind's is that of its coefficient
    list (``square`` is (0, 0, 1), ``identity`` (0, 1)), the rest's inf. A
    polynomial of higher degree than ``order`` is not whole."""
    signed = taylor_coeffs(spec, order)
    return series_from([abs(v) for v in signed.coeffs], order=order,
                       nonneg=True, degree=signed.degree)


# math.erf elementwise: numpy has no erf, and scipy's costs a ~0.3 s import
_erf = np.vectorize(math.erf, otypes=[float])


def evaluate(spec: ActivationSpec, x):
    """sigma(x) itself (not the majorant); vectorized over numpy arrays.

    A polynomial kind is evaluated by Horner's rule from its top nonzero
    coefficient (`eval_series`), so ``square`` gives bitwise x * x and
    ``identity`` x + 0.0, infinities included.
    """
    x = np.asarray(x, dtype=float)
    if spec.polynomial is not None:
        out = eval_series(series_from(spec.polynomial), x)
    elif spec.kind == "exp":
        out = np.exp(x)
    elif spec.kind == "geometric":
        out = 1.0 / (1.0 - spec.ratio * x)
    elif spec.kind == "erf_sigmoid":
        out = 0.5 * (1.0 + _erf(math.sqrt(math.pi) * x))
    else:  # smooth_hinge
        out = x * _erf(x) + np.exp(-math.pi * x * x) / (2.0 * math.pi)
    return out if out.shape else float(out)
