import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import erf

from harmonica.activations import (KINDS, ActivationSpec, _erf, activation,
                                   evaluate, majorant_series, taylor_coeffs)
from harmonica.errors import UnsupportedActivationError
from harmonica.taylor import (MAX_ORDER, eval_series, exp_series,
                              identity_series, series_from)

from conftest import fd_derivative
from helpers import TAKES, activation_with


def test_exp_majorant():
    got = majorant_series(activation("exp"), 3)
    assert got.coeffs == (1.0, 1.0, 0.5, 1.0 / 6.0)


def test_square_majorant():
    got = majorant_series(activation("square"), 4)
    assert got.coeffs == (0.0, 0.0, 1.0, 0.0, 0.0)


def test_erf_sigmoid_majorant_order3():
    got = majorant_series(activation("erf_sigmoid"), 3)
    want = (0.5, 1.0, 0.0, math.pi / 3.0)
    np.testing.assert_allclose(got.coeffs, want, rtol=1e-15)


@pytest.mark.parametrize("kind", ["erf_sigmoid", "smooth_hinge"])
def test_integral_activations_match_finite_differences(kind):
    # the closed-form coefficients were derived by hand; this cross-checks
    # them against numerical derivatives of the scalar function at 0
    # (high orders get a looser bound: FD truncation grows with pi^m factors)
    spec = activation(kind)
    got = majorant_series(spec, 7)
    for m in range(8):
        oracle = abs(fd_derivative(lambda x: evaluate(spec, x), m)
                     / math.factorial(m))
        rel, abs_ = (1e-7, 1e-10) if m <= 4 else (1e-5, 1e-8)
        assert got.coeffs[m] == pytest.approx(oracle, rel=rel, abs=abs_)


@pytest.mark.parametrize("kind", KINDS)
def test_majorants_build_at_max_order(kind):
    # factorials overflow floats past 170; the coefficients must underflow
    s = majorant_series(activation_with(kind), MAX_ORDER)
    assert s.order == MAX_ORDER
    assert all(math.isfinite(v) and v >= 0.0 for v in s.coeffs)


def test_exp_series_past_factorial_overflow():
    s = exp_series(MAX_ORDER)
    assert s.coeffs[170] == pytest.approx(1.0 / math.factorial(170), rel=1e-15)
    assert 0.0 < s.coeffs[171] < s.coeffs[170]
    assert s.coeffs[MAX_ORDER] == 0.0
    assert majorant_series(activation("exp"), MAX_ORDER).coeffs == s.coeffs


def _mp_erf_sigmoid_coeff(m):
    # 0.5 erf(sqrt(pi) x) from erf(z) = 2/sqrt(pi) sum (-1)^n z^(2n+1) / (n! (2n+1))
    if m == 0:
        return mpmath.mpf(1) / 2
    if m % 2 == 0:
        return mpmath.mpf(0)
    n = (m - 1) // 2
    return (mpmath.sqrt(mpmath.pi) ** m * (-1) ** n
            / (mpmath.sqrt(mpmath.pi) * mpmath.factorial(n) * m))


def _mp_smooth_hinge_coeff(m):
    # x erf(x) from the erf series plus exp(-pi x^2) / (2 pi) from exp's
    if m % 2:
        return mpmath.mpf(0)
    n = m // 2
    out = (-mpmath.pi) ** n / (mpmath.factorial(n) * 2 * mpmath.pi)
    if n >= 1:
        out += (2 / mpmath.sqrt(mpmath.pi) * (-1) ** (n - 1)
                / (mpmath.factorial(n - 1) * (2 * n - 1)))
    return out


@pytest.mark.parametrize("kind,oracle", [("erf_sigmoid", _mp_erf_sigmoid_coeff),
                                         ("smooth_hinge", _mp_smooth_hinge_coeff)])
def test_integral_activations_match_mpmath_series(kind, oracle):
    got = taylor_coeffs(activation(kind), 121).coeffs
    with mpmath.workdps(40):
        for m in range(122):
            want = float(oracle(m))
            if want == 0.0:
                assert got[m] == 0.0
            else:
                assert got[m] == pytest.approx(want, rel=1e-12), m


def test_polynomial_majorant_is_padded_coeffs():
    spec = activation("poly", coeffs=[0.5, 0.0, 2.0])
    assert majorant_series(spec, 5).coeffs == (0.5, 0.0, 2.0, 0.0, 0.0, 0.0)
    neg = activation("custom", coeffs=[1.0, -3.0])
    assert majorant_series(neg, 2).coeffs == (1.0, 3.0, 0.0)


def test_majorants_nonneg():
    for kind in ("exp", "square", "identity", "erf_sigmoid", "smooth_hinge"):
        s = majorant_series(activation(kind), 12)
        assert s.nonneg and all(v >= 0.0 for v in s.coeffs)


@pytest.mark.parametrize("kind,fn", [("exp", math.exp), ("square", lambda t: t * t)])
def test_majorant_evaluates_to_function(kind, fn):
    s = majorant_series(activation(kind), 40)
    for t in (-2.0, -0.5, 0.0, 1.0, 2.0):
        tail = 2.0 ** 41 / math.factorial(41)  # exp tail at |t| <= 2
        assert abs(eval_series(s, abs(t)) - fn(abs(t))) <= tail + 1e-12


def test_evaluate_scalar_functions():
    assert evaluate(activation("erf_sigmoid"), 0.0) == pytest.approx(0.5)
    big = evaluate(activation("erf_sigmoid"), 10.0)
    assert big == pytest.approx(1.0, abs=1e-12)
    sh = activation("smooth_hinge")
    x = np.array([3.0, -3.0])
    np.testing.assert_allclose(evaluate(sh, x),
                               x * erf(x) + np.exp(-math.pi * x * x) / (2 * math.pi))
    # large-argument shape: x erf(x) approaches |x|
    assert evaluate(sh, 50.0) == pytest.approx(50.0, rel=1e-6)


@pytest.mark.parametrize("kind,formula", [
    ("erf_sigmoid", lambda x: 0.5 * (1.0 + erf(math.sqrt(math.pi) * x))),
    ("smooth_hinge",
     lambda x: x * erf(x) + np.exp(-math.pi * x * x) / (2 * math.pi)),
])
def test_erf_activations_match_scipy_erf(kind, formula):
    x = np.linspace(-6.0, 6.0, 2400)
    # the math.erf kernel itself, elementwise
    np.testing.assert_allclose(_erf(x), erf(x), rtol=1e-14, atol=0.0)
    # 1 + erf cancels for negative arguments: hold the activation to 1e-14
    # of its own scale there
    want = formula(x.reshape(3, -1))
    np.testing.assert_allclose(evaluate(activation(kind), x.reshape(3, -1)),
                               want, rtol=1e-14, atol=1e-14)


def test_geometric_activation():
    spec = activation("geometric", ratio=0.5)
    assert taylor_coeffs(spec, 4).coeffs == (1.0, 0.5, 0.25, 0.125, 0.0625)
    assert evaluate(spec, 1.0) == pytest.approx(2.0)


def test_unknown_kind_rejected():
    with pytest.raises(UnsupportedActivationError):
        ActivationSpec("relu")



@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name,value", [("coeffs", [0.0, 0.0, 0.0, 7.0]),
                                        ("coeffs", []), ("ratio", 0.5)])
def test_parameter_a_kind_does_not_take_is_refused(kind, name, value):
    if TAKES.get(kind) == name:
        return  # the kind's own parameter
    spec = activation_with(kind)  # builds without the stray parameter
    own = {TAKES[kind]: getattr(spec, TAKES[kind])} if kind in TAKES else {}
    with pytest.raises(ValueError, match=f"{kind} activation takes no {name}"):
        activation(kind, **own, **{name: value})


@pytest.mark.parametrize("kind,args", [
    ("poly", {}), ("custom", {"coeffs": []}),
    ("poly", {"coeffs": [1.0, float("inf")]}), ("geometric", {}),
    ("geometric", {"ratio": 1.0}), ("geometric", {"ratio": 0.0})])
def test_missing_or_bad_own_parameter_is_refused(kind, args):
    with pytest.raises(ValueError, match=f"{kind} activation needs"):
        activation(kind, **args)


def test_fixed_polynomials():
    assert activation("square").polynomial == (0.0, 0.0, 1.0)
    assert activation("identity").polynomial == (0.0, 1.0)
    assert activation("poly", coeffs=[1, 2]).polynomial == (1.0, 2.0)
    for kind in ("exp", "erf_sigmoid", "smooth_hinge"):
        assert activation(kind).polynomial is None
    assert activation("geometric", ratio=0.5).polynomial is None


# every double but nan: +-0, subnormals, values whose square overflows, inf
_DOUBLES = arrays(float, st.integers(0, 40), elements=st.floats(allow_nan=False))
_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.4e154, -1.4e154,
                   1e200, -1.8e308, np.inf, -np.inf])


@given(x=_DOUBLES)
@example(x=_EDGES)
def test_square_and_identity_are_bitwise_the_replaced_formulas(x):
    with np.errstate(all="ignore"):
        assert (evaluate(activation("square"), x).tobytes()
                == (x * x).tobytes())
        assert (evaluate(activation("identity"), x).tobytes()
                == (x + 0.0).tobytes())
        for v in x[:3].tolist():  # a scalar gives a float
            got = evaluate(activation("square"), v)
            assert type(got) is float and got == v * v


@pytest.mark.parametrize("order", [1, 2, 3, 64, MAX_ORDER])
def test_square_and_identity_series_are_the_replaced_series(order):
    assert (taylor_coeffs(activation("square"), order)
            == series_from([0.0, 0.0, 1.0], order=order))
    assert taylor_coeffs(activation("identity"), order) == identity_series(order)


@given(coeffs=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=6),
       x=arrays(float, st.integers(0, 20),
                elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_poly_evaluates_bitwise_as_numpy_polyval(coeffs, x):
    # the formula poly and custom used before they shared Horner's rule
    # with square and identity: bitwise equal at every finite point of a
    # polynomial that is not zero
    assume(any(coeffs))
    with np.errstate(all="ignore"):
        want = np.polynomial.polynomial.polyval(x, np.asarray(coeffs))
        for kind in ("poly", "custom"):
            got = evaluate(activation(kind, coeffs=coeffs), x)
            assert got.tobytes() == want.tobytes()
