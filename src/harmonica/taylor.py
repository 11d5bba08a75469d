"""Truncated power-series arithmetic over nonnegative coefficients.

Series are dense coefficient vectors truncated at a fixed order. Each one
also records the degree of the function it stands for: an integer for a
polynomial, math.inf for a series cut from an infinite one. A series is
whole, holding its function exactly, when its degree is at most its
order. The degree is set once, where a series is made, and never read off
where its coefficients stop: a coefficient list gives its last nonzero
index, the exp and geometric series give inf, products add degrees (so
power l multiplies one by l) and composition multiplies them, where a
degree-0 (constant) factor gives 0. A product is one ``np.convolve`` of
the two coefficient vectors, its operands put in a fixed order first, so
it commutes bitwise; its coefficients are not correctly rounded, but each
is within gamma_{m+1} = (m+1)u / (1 - (m+1)u) (u = 2^-53) of the exact
sum relative to sum_k |a_k b_{m-k}|, which for the nonnegative majorants
is the coefficient itself. Compositions sum their terms with per-coefficient
``math.fsum``. Everything here is pure and safe to call concurrently.
"""

from __future__ import annotations

import itertools
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


def check_order(order: int, name: str = "order") -> None:
    if order < 0 or order > MAX_ORDER:
        raise TruncationCapError(f"{name} {order} outside [0, {MAX_ORDER}]")


def _top_index(coeffs) -> int:
    """Index of the last nonzero coefficient; 0 for the zero series."""
    for m in range(len(coeffs) - 1, 0, -1):
        if coeffs[m] != 0.0:
            return m
    return 0


@dataclass(frozen=True)
class CoeffSeries:
    """Coefficient vector of a truncated power series.

    ``coeffs[m]`` is the coefficient of degree m; ``order = len(coeffs) - 1``.
    ``nonneg`` records that every coefficient is >= 0, which is what the
    eigenvalue formulas require of majorant series. ``degree`` is the
    degree of the function the series stands for: an integer for a
    polynomial (every coefficient past it is zero), math.inf for a series
    cut from an infinite one; left out, it is the last nonzero index of
    ``coeffs`` (0 for the zero series). A polynomial of degree above the
    order is one cut short. The series is ``whole`` when degree <= order.
    """

    coeffs: tuple
    nonneg: bool = field(default=False)
    degree: float = field(default=None)

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        if not c:
            raise ValueError("series needs at least the degree-0 coefficient")
        check_order(len(c) - 1)
        if not all(math.isfinite(v) for v in c):
            raise ValueError("series coefficients must be finite")
        if self.nonneg and any(v < 0.0 for v in c):
            raise ValueError("nonneg series has a negative coefficient")
        deg = _top_index(c) if self.degree is None else self.degree
        if deg != math.inf:
            if not (deg >= 0 and float(deg).is_integer()):
                raise ValueError(f"degree {deg} is neither a nonnegative "
                                 "integer nor inf")
            deg = int(deg)
            if any(itertools.islice(c, deg + 1, None)):
                raise ValueError(f"series of degree {deg} has a nonzero "
                                 "coefficient past it")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "degree", deg)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def whole(self) -> bool:
        """True when the coefficients hold the whole function."""
        return self.degree <= self.order

    def asarray(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=float)

    def truncated(self, order: int) -> "CoeffSeries":
        if order == self.order:
            return self  # frozen, so sharing it is safe
        return series_from(self.coeffs, order=order, nonneg=self.nonneg,
                           degree=self.degree)


def series_from(coeffs: Sequence[float], order: int | None = None,
                nonneg: bool | None = None,
                degree: float | None = None) -> CoeffSeries:
    """Build a series, padding or truncating to ``order`` when given.

    The degree defaults to the last nonzero index of ``coeffs`` as given,
    so a polynomial truncated below its degree keeps it (and is not whole).
    """
    c = [float(v) for v in coeffs]
    if degree is None:
        degree = _top_index(c)
    if order is not None:
        check_order(order)
        c = c[: order + 1] + [0.0] * (order + 1 - len(c))
    if nonneg is None:
        nonneg = all(v >= 0.0 for v in c)
    return CoeffSeries(tuple(c), nonneg=nonneg, degree=degree)


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
    return series_from(coeffs, nonneg=True, degree=math.inf)


def geometric_series(r: float, order: int) -> CoeffSeries:
    """Coefficients r^m of 1/(1 - r x), the geometrically-bounded family
    whose eigenvalue windows and decay law are checked empirically."""
    if not 0.0 < r < 1.0:
        raise ValueError("geometric ratio must lie in (0, 1)")
    return series_from([r ** m for m in range(order + 1)], nonneg=True,
                       degree=math.inf)


def _computed_series(coeffs: list, nonneg: bool,
                     degree: float) -> CoeffSeries:
    """Series from computed coefficients; one past the double range raises
    OverflowError, as ``math.fsum`` itself does on intermediate overflow."""
    if not all(map(math.isfinite, coeffs)):
        raise OverflowError("series coefficients overflow the double range")
    return CoeffSeries(tuple(coeffs), nonneg=nonneg, degree=degree)


def cauchy_product(a: CoeffSeries, b: CoeffSeries, order: int) -> CoeffSeries:
    """Truncated product: result[m] = sum_{k<=m} a[k] b[m-k], of degree
    a.degree + b.degree.

    One ``np.convolve`` of the coefficient vectors cut to ``order``, then
    truncated or zero-padded to order + 1 coefficients. The operands are
    sorted first, so the product commutes bitwise. Each coefficient is
    within gamma_{m+1} = (m+1)u / (1 - (m+1)u) of the exact sum, relative
    to sum_k |a[k] b[m-k]|: the coefficient itself when both series are
    nonnegative. A coefficient past the double range raises OverflowError.
    """
    check_order(order)
    x, y = sorted((a.coeffs[:order + 1], b.coeffs[:order + 1]))
    out = np.convolve(x, y)[:order + 1].tolist()
    out += [0.0] * (order + 1 - len(out))
    return _computed_series(out, a.nonneg and b.nonneg, a.degree + b.degree)


def power(a: CoeffSeries, alpha: int, order: int) -> CoeffSeries:
    """Coefficients of a(x)**alpha truncated at ``order``: the alpha entry
    of a fresh ``power_table``."""
    if alpha < 0:
        raise ValueError("alpha must be a nonnegative integer")
    return power_table(a, order)(alpha)


def power_table(a: CoeffSeries, order: int) -> Callable[[int], CoeffSeries]:
    """Memoized l -> a**l table, one left-fold product per new l.

    Entry l is cauchy_product(a**(l-1), a) bitwise: a left fold, not binary
    squaring, so an entry does not depend on which entries were asked for
    first, and every table (and `power`) gives the same bits. A product
    of two other entries, cauchy_product(a**i, a**j) with i, j > 1, agrees
    with a**(i+j) only to within the rounding bound of the products. The
    l = 1 entry is a itself: cauchy_product(1, a) reproduces a exactly, so
    the O(order^2) product is skipped. Entry l has degree l * a.degree.
    """
    cache: dict[int, CoeffSeries] = {
        0: series_from([1.0], order=order, nonneg=True),
        1: a.truncated(order)}

    def table(l: int) -> CoeffSeries:
        for j in range(len(cache), l + 1):
            cache[j] = cauchy_product(cache[j - 1], a, order)
        return cache[l]

    return table


def compose(outer: CoeffSeries, inner: CoeffSeries, order: int,
            l_max: int = DEFAULT_L_MAX,
            tol: float = DEFAULT_COMPOSE_TOL) -> CoeffSeries:
    """Coefficients of outer(inner(x)) truncated at ``order``.

    Sums outer[l] * (inner**l) over l <= l_max. With a nonzero inner constant
    term every l contributes to every coefficient, so the truncation tail is
    estimated (see composition_tail) and must fall below ``tol``. The
    result's degree is outer.degree * inner.degree, or 0 when either is 0:
    a constant on either side makes the composition constant.
    """
    check_order(order)
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
    degree = (0 if 0 in (outer.degree, inner.degree)
              else outer.degree * inner.degree)
    return _computed_series([math.fsum(t) for t in terms], outer.nonneg,
                            degree)


def composition_tail(outer: CoeffSeries, inner: CoeffSeries,
                     l_max: int) -> float:
    """Upper estimate of the mass dropped past l_max.

    For nonneg series (inner**l)[m] <= inner(1)**l, so the dropped
    contribution to any coefficient is below sum_{l>l_max} outer[l] S^l with
    S = inner(1). A polynomial outer drops nothing within l_max, past it the
    sum is explicit, and past its own order its coefficients are unknown
    (infinite tail). An outer series of degree inf has its tail extrapolated
    geometrically from the last two retained nonzero terms; fewer than two,
    terms not decaying (a divergent composition) or a term past the double
    range give an infinite tail.
    """
    l_top = min(l_max, outer.order)
    s = eval_series(inner, 1.0)
    if outer.degree <= l_top or s == 0.0:
        return 0.0  # nothing dropped, or inner**l = 0 for every l >= 1
    try:  # S^l past the double range means an infinite tail
        if outer.whole:
            return math.fsum(abs(outer.coeffs[l]) * s ** l
                             for l in range(l_top + 1, outer.degree + 1))
        if outer.degree != math.inf:
            return math.inf  # a polynomial cut short: dropped terms unknown
        nz = [l for l in range(l_top + 1) if outer.coeffs[l] != 0.0]
        if len(nz) < 2:
            return math.inf  # nothing to extrapolate from
        l1, l2 = nz[-2], nz[-1]
        t1 = abs(outer.coeffs[l1]) * s ** l1
        t2 = abs(outer.coeffs[l2]) * s ** l2
    except (OverflowError, ValueError):
        return math.inf
    if t2 == 0.0:
        return 0.0
    if t2 >= t1:
        return math.inf
    step = (t2 / t1) ** (1.0 / (l2 - l1))
    return t2 * step / (1.0 - step)


def eval_series(a: CoeffSeries, t, out=None):
    """Horner evaluation sum_m a[m] t^m; accepts scalars or arrays.

    Horner starts at the last nonzero coefficient. For finite t the trailing
    zeros of a padded series would only add exact zeros, so a series padded
    to any order gives bitwise the values of the same series at its degree.
    For array t, ``out`` (a float array of t's shape other than t itself)
    takes the values in place of a new array and is returned; the
    operations, and so every value, are the same either way.
    """
    coeffs = a.coeffs[: _top_index(a.coeffs) + 1]
    if np.isscalar(t):
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * t + c
        return acc
    t = np.asarray(t, dtype=float)
    acc = np.empty(t.shape) if out is None else out
    acc.fill(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc *= t
        acc += c
    return acc
