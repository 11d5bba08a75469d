"""Exact truncated power-series arithmetic over nonnegative coefficients.

Series are dense coefficient vectors truncated at a fixed degree. Products
use per-coefficient ``math.fsum`` so results are independent of operand
order, which the invariant tests rely on. Everything here is pure and safe
to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, TruncationCapError

# Hard cap on truncation degree; large spectra (d=2 decay runs) need a few
# thousand coefficients.
MAX_ORDER = 4096

DEFAULT_ORDER = 64
DEFAULT_L_MAX = 64
DEFAULT_COMPOSE_TOL = 1e-9


def _check_order(order: int) -> None:
    if order < 0 or order > MAX_ORDER:
        raise TruncationCapError(f"order {order} outside [0, {MAX_ORDER}]")


@dataclass(frozen=True)
class CoeffSeries:
    """Coefficient vector of a truncated power series.

    ``coeffs[m]`` is the coefficient of degree m; ``order = len(coeffs) - 1``.
    ``nonneg`` records that every coefficient is >= 0, which is what the
    eigenvalue formulas require of majorant series.
    """

    coeffs: tuple
    nonneg: bool = field(default=False)

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        if not c:
            raise ValueError("series needs at least the degree-0 coefficient")
        _check_order(len(c) - 1)
        if not all(math.isfinite(v) for v in c):
            raise ValueError("series coefficients must be finite")
        if self.nonneg and any(v < 0.0 for v in c):
            raise ValueError("nonneg series has a negative coefficient")
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, m: int) -> float:
        return self.coeffs[m]

    def asarray(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=float)

    def truncated(self, order: int) -> "CoeffSeries":
        _check_order(order)
        c = self.coeffs[: order + 1]
        c = c + (0.0,) * (order + 1 - len(c))
        return CoeffSeries(c, nonneg=self.nonneg)

    def degree(self) -> int | None:
        """Index of the last nonzero coefficient, or None for the zero series."""
        for m in range(self.order, -1, -1):
            if self.coeffs[m] != 0.0:
                return m
        return None


def series_from(coeffs: Sequence[float], order: int | None = None,
                nonneg: bool | None = None) -> CoeffSeries:
    """Build a series, padding or truncating to ``order`` when given."""
    c = [float(v) for v in coeffs]
    if order is not None:
        _check_order(order)
        c = c[: order + 1] + [0.0] * (order + 1 - len(c))
    if nonneg is None:
        nonneg = all(v >= 0.0 for v in c)
    return CoeffSeries(tuple(c), nonneg=nonneg)


def identity_series(order: int = 1) -> CoeffSeries:
    """The series of x itself."""
    return series_from([0.0, 1.0], order=max(order, 1), nonneg=True)


def exp_series(order: int) -> CoeffSeries:
    # 1 / m! as int / int: correctly rounded, and it underflows to 0.0 where
    # the float conversion of m! (m > 170) would overflow
    coeffs, fact = [], 1
    for m in range(order + 1):
        fact *= max(m, 1)
        coeffs.append(1 / fact)
    return series_from(coeffs, nonneg=True)


def geometric_series(r: float, order: int) -> CoeffSeries:
    """Coefficients r^m of 1/(1 - r x), the geometrically-bounded family
    whose eigenvalue windows and decay law are checked empirically."""
    if not 0.0 < r < 1.0:
        raise ValueError("geometric ratio must lie in (0, 1)")
    return series_from([r ** m for m in range(order + 1)], nonneg=True)


def _computed_series(coeffs: list, nonneg: bool) -> CoeffSeries:
    """Series from computed coefficients; one past the double range raises
    OverflowError, as ``math.fsum`` itself does on intermediate overflow."""
    if not all(map(math.isfinite, coeffs)):
        raise OverflowError("series coefficients overflow the double range")
    return CoeffSeries(tuple(coeffs), nonneg=nonneg)


def cauchy_product(a: CoeffSeries, b: CoeffSeries, order: int) -> CoeffSeries:
    """Truncated product: result[m] = sum_{k<=m} a[k] b[m-k].

    fsum keeps each coefficient correctly rounded, so the product commutes
    exactly.
    """
    _check_order(order)
    ca, cb = a.coeffs, b.coeffs
    out = []
    for m in range(order + 1):
        lo = max(0, m - len(cb) + 1)
        hi = min(m, len(ca) - 1)
        out.append(math.fsum(ca[k] * cb[m - k] for k in range(lo, hi + 1)))
    return _computed_series(out, a.nonneg and b.nonneg)


def power(a: CoeffSeries, alpha: int, order: int) -> CoeffSeries:
    """Coefficients of a(x)**alpha truncated at ``order``.

    Iterated left-fold products (not binary squaring) so that
    power(a, i+j) agrees with cauchy_product(power(a, i), power(a, j))
    coefficient-for-coefficient.
    """
    if alpha < 0:
        raise ValueError("alpha must be a nonnegative integer")
    _check_order(order)
    if alpha == 1:
        # multiplying by [1, 0, ...] reproduces a exactly; skip the O(order^2) pass
        return a.truncated(order)
    out = series_from([1.0], order=order, nonneg=True)
    for _ in range(alpha):
        out = cauchy_product(out, a, order)
    return out


def power_table(a: CoeffSeries, order: int) -> Callable[[int], CoeffSeries]:
    """Memoized l -> a**l table, one left-fold product per new l.

    Entries are bitwise equal to power(a, l, order). The l = 1 entry is
    seeded like power's: cauchy_product(1, a) reproduces a exactly, so the
    O(order^2) product is skipped.
    """
    cache: dict[int, CoeffSeries] = {
        0: series_from([1.0], order=order, nonneg=True),
        1: a.truncated(order)}

    def table(l: int) -> CoeffSeries:
        if l not in cache:
            prev = table(l - 1)
            cache[l] = cauchy_product(prev, a, order)
        return cache[l]

    return table


def compose(outer: CoeffSeries, inner: CoeffSeries, order: int,
            l_max: int = DEFAULT_L_MAX,
            tol: float = DEFAULT_COMPOSE_TOL) -> CoeffSeries:
    """Coefficients of outer(inner(x)) truncated at ``order``.

    Sums outer[l] * (inner**l) over l <= l_max. With a nonzero inner constant
    term every l contributes to every coefficient, so the truncation tail is
    estimated (see composition_tail) and must fall below ``tol``.
    """
    _check_order(order)
    powers = power_table(inner, order)
    tail = composition_tail(outer, powers(1), l_max)
    if tail > tol:
        raise ConvergenceError(
            f"composition tail estimate {tail:.3e} above tolerance {tol:.1e} "
            f"at l_max={l_max}")
    terms = [[] for _ in range(order + 1)]
    for l in range(min(l_max, outer.order) + 1):
        ol = outer.coeffs[l]
        if ol == 0.0:
            continue
        pw = powers(l)
        for m in range(order + 1):
            v = ol * pw.coeffs[m]
            if v != 0.0:
                terms[m].append(v)
    return _computed_series([math.fsum(t) for t in terms], outer.nonneg)


def composition_tail(outer: CoeffSeries, inner: CoeffSeries,
                     l_max: int) -> float:
    """Upper estimate of the mass dropped past l_max.

    For nonneg series (inner**l)[m] <= inner(1)**l, so the dropped
    contribution to any coefficient is below sum_{l>l_max} outer[l] S^l with
    S = inner(1). An outer series that still has nonzero coefficients at its
    truncation boundary is treated as infinite and its tail extrapolated
    geometrically from the last two retained terms; terms not decaying means
    a divergent composition (infinite tail).
    """
    s = eval_series(inner, 1.0)
    deg = outer.degree()
    if deg is None:
        return 0.0
    boundary = outer.coeffs[outer.order] != 0.0 or (
        outer.order >= 1 and outer.coeffs[outer.order - 1] != 0.0)
    l_top = min(l_max, outer.order)
    if not boundary and deg <= l_top:
        return 0.0  # genuinely finite composition
    if not boundary:
        # polynomial outer longer than l_max: the dropped mass is explicit
        return math.fsum(abs(outer.coeffs[l]) * s ** l
                         for l in range(l_top + 1, deg + 1))
    nz = [l for l in range(l_top + 1) if outer.coeffs[l] != 0.0]
    if len(nz) < 2:
        return 0.0  # a single retained term reads as an exact monomial
    l1, l2 = nz[-2], nz[-1]
    t1 = abs(outer.coeffs[l1]) * s ** l1
    t2 = abs(outer.coeffs[l2]) * s ** l2
    if t2 == 0.0:
        return 0.0
    if t2 >= t1:
        return math.inf
    step = (t2 / t1) ** (1.0 / (l2 - l1))
    return t2 * step / (1.0 - step)


def eval_series(a: CoeffSeries, t):
    """Horner evaluation sum_m a[m] t^m; accepts scalars or arrays.

    Horner starts at the last nonzero coefficient. For finite t the trailing
    zeros of a padded series would only add exact zeros, so a series padded
    to any order gives bitwise the values of the same series at its degree.
    """
    coeffs = a.coeffs[: (a.degree() or 0) + 1]
    if np.isscalar(t):
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * t + c
        return acc
    t = np.asarray(t, dtype=float)
    acc = np.full(t.shape, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc *= t
        acc += c
    return acc
