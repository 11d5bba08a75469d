import math

import numpy as np
import pytest

from harmonica import krr
from harmonica.activations import activation
from harmonica.errors import SolverError
from harmonica.image import sample_uniform, sample_uniform_batch
from harmonica.kernel import build_kernel, constant_kernel, eval_kernel, gram
from harmonica.krr import (Dataset, Schedule, SourceTarget, apply_target,
                           closed_form_top_eigs, learning_curve, mse,
                           nystrom_eigs, predict, rls_fit, rls_objective,
                           schedule_lambda)
from harmonica.spectrum import (canonical_profile, enumerate_spectrum,
                                lambda_table, mu_eigenvalue)

from conftest import scalar_zonal_feature

EI = [activation("exp"), activation("identity")]


def test_rls_single_point_closed_form():
    spec = build_kernel(EI, 1, 3)
    x1 = sample_uniform(1, 3, 1)
    fit = rls_fit(spec, Dataset(xs=(x1,), ys=[2.0]), 0.5)
    xq = sample_uniform(1, 3, 2)
    want = 2.0 * eval_kernel(spec, xq, x1) / (eval_kernel(spec, x1, x1) + 0.5)
    assert predict(spec, fit, [xq])[0] == pytest.approx(want, rel=1e-12)


def test_rls_huge_lambda_shrinks_to_zero():
    spec = build_kernel(EI, 1, 3)
    xs = sample_uniform_batch(12, 1, 3, 3)
    ys = np.linspace(-1.0, 1.0, 12)
    fit = rls_fit(spec, Dataset(xs=tuple(xs), ys=ys),
                  1e6 * spec.diag_value())
    assert np.abs(predict(spec, fit, xs)).max() <= 1e-3 * np.abs(ys).max()


def test_rls_interpolates_at_tiny_lambda():
    spec = build_kernel([activation("exp"), activation("exp")], 2, 3)
    xs = sample_uniform_batch(20, 2, 3, 5)
    rng = np.random.default_rng(0)
    ys = rng.standard_normal(20)
    fit = rls_fit(spec, Dataset(xs=tuple(xs), ys=ys), 1e-10)
    assert np.abs(predict(spec, fit, xs) - ys).max() <= 1e-6


def test_rls_objective_no_worse_than_zero():
    spec = build_kernel(EI, 2, 3)
    xs = sample_uniform_batch(15, 2, 3, 8)
    rng = np.random.default_rng(4)
    ys = rng.standard_normal(15)
    for lam in (1e-6, 1e-2, 1.0):
        fit = rls_fit(spec, Dataset(xs=tuple(xs), ys=ys), lam)
        assert rls_objective(spec, Dataset(xs=tuple(xs), ys=ys), fit) \
            <= np.mean(ys ** 2) + 1e-12


def test_prediction_linear_in_labels():
    spec = build_kernel(EI, 1, 3)
    xs = sample_uniform_batch(10, 1, 3, 9)
    rng = np.random.default_rng(1)
    ys = rng.standard_normal(10)
    fit1 = rls_fit(spec, Dataset(xs=tuple(xs), ys=ys), 0.1)
    fit2 = rls_fit(spec, Dataset(xs=tuple(xs), ys=2.0 * ys), 0.1)
    q = sample_uniform_batch(5, 1, 3, 10)
    np.testing.assert_allclose(predict(spec, fit2, q),
                               2.0 * predict(spec, fit1, q), atol=1e-10)


def _failing_cho_factor(monkeypatch, failures):
    """Make krr.cho_factor raise LinAlgError on its first `failures` calls;
    returns the list of matrices it was called with."""
    real = krr.cho_factor
    calls = []

    def cho_factor(a, **kwargs):
        calls.append(np.array(a))
        if len(calls) <= failures:
            raise np.linalg.LinAlgError("not positive definite")
        return real(a, **kwargs)

    monkeypatch.setattr(krr, "cho_factor", cho_factor)
    return calls


def test_rls_cholesky_jitter_retry(monkeypatch):
    spec = build_kernel(EI, 1, 3)
    xs = sample_uniform_batch(12, 1, 3, 11)
    data = Dataset(xs=tuple(xs), ys=np.linspace(-1.0, 1.0, 12))
    plain = rls_fit(spec, data, 1e-3)
    calls = _failing_cho_factor(monkeypatch, failures=1)
    fit = rls_fit(spec, data, 1e-3)
    assert len(calls) == 2
    G = gram(spec, xs)
    jitter = 1e-12 * np.trace(G) / 12
    np.testing.assert_allclose(calls[1] - calls[0], jitter * np.eye(12),
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(fit.coeffs, plain.coeffs, rtol=1e-8)
    np.testing.assert_allclose(fit.fitted, G @ fit.coeffs, rtol=1e-12)


def test_rls_cholesky_failure_is_solver_error(monkeypatch):
    spec = build_kernel(EI, 1, 3)
    xs = sample_uniform_batch(12, 1, 3, 11)
    data = Dataset(xs=tuple(xs), ys=np.linspace(-1.0, 1.0, 12))
    calls = _failing_cho_factor(monkeypatch, failures=math.inf)
    with pytest.raises(SolverError) as info:
        rls_fit(spec, data, 1e-3)
    assert len(calls) == 2
    want = np.linalg.cond(gram(spec, xs) + 1e-3 * 12 * np.eye(12))
    assert info.value.condition == pytest.approx(want, rel=1e-12)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_schedule_formulas_exact():
    assert schedule_lambda(Schedule(beta=2.0), 16, 3, 2) == 0.25
    assert schedule_lambda(Schedule(beta=1.0, mu_exp=5.0), 148, 3, 2) \
        == pytest.approx(math.log(148) ** 5 / 148, rel=1e-15)
    assert schedule_lambda(Schedule(beta=0.5), 100, 3, 2) \
        == pytest.approx(math.log(100) ** 8 / 100, rel=1e-15)


def test_schedule_guards():
    with pytest.raises(ValueError):
        schedule_lambda(Schedule(beta=2.0), 2, 3, 2)
    with pytest.raises(ValueError):
        schedule_lambda(Schedule(beta=1.0, mu_exp=3.0), 100, 3, 2)
    with pytest.raises(ValueError):
        Schedule(beta=2.5)


def test_nystrom_constant_kernel_rank_one():
    spec = constant_kernel(2.0, 1, 3)
    eigs = nystrom_eigs(spec, 300, 5, seed=0)
    want = 2.0 * 4 * math.pi
    assert eigs[0] == pytest.approx(want, rel=1e-10)
    assert np.all(np.abs(eigs[1:]) <= 0.01 * eigs[0])


def test_nystrom_nonnegative():
    spec = build_kernel(EI, 1, 3)
    eigs = nystrom_eigs(spec, 200, 200, seed=2)
    G_trace = 200 * spec.diag_value() * (4 * math.pi) / 200
    assert eigs.min() >= -1e-9 * G_trace * 200


def test_nystrom_matches_closed_form_top10():
    spec = build_kernel(EI, 1, 3)
    tab = lambda_table(spec.f1, 3, 20, spec.q_cap)
    entries = enumerate_spectrum(spec, tab, 20)
    closed = closed_form_top_eigs(spec, tab, entries, 10)
    nys = nystrom_eigs(spec, 2000, 10, seed=4)
    np.testing.assert_allclose(nys, closed, rtol=0.10)


def test_nystrom_top_k_matches_full_eigvalsh():
    spec = build_kernel([activation("exp"), activation("square")], 2, 3)
    ell, top_k = 300, 12
    G = gram(spec, sample_uniform_batch(ell, 2, 3, 8))
    want = np.linalg.eigvalsh(G)[::-1][:top_k] * (4 * math.pi) ** 2 / ell
    np.testing.assert_allclose(nystrom_eigs(spec, ell, top_k, seed=8), want,
                               rtol=1e-12)


def test_nystrom_needs_enough_samples():
    spec = build_kernel(EI, 1, 3)
    with pytest.raises(ValueError):
        nystrom_eigs(spec, 5, 10, seed=0)


def test_nystrom_stability_under_doubling():
    spec = build_kernel(EI, 1, 3)
    e1 = nystrom_eigs(spec, 600, 5, seed=6)
    e2 = nystrom_eigs(spec, 1200, 5, seed=6)
    assert np.all(np.abs(e2 - e1) / e1 <= 0.05)


def test_source_target_in_rkhs_and_batch():
    spec = build_kernel(EI, 2, 3)
    tab = lambda_table(spec.f1, 3, 4, spec.q_cap)
    anchor = sample_uniform(2, 3, 42)
    tgt = SourceTarget(spec, tab, anchor, [((1, 0), 1.0), ((2, 0), 0.5)])
    xs = sample_uniform_batch(7, 2, 3, 43)
    np.testing.assert_allclose(apply_target(tgt, xs),
                               [tgt(x) for x in xs], rtol=1e-12)
    with pytest.raises(ValueError):
        SourceTarget(spec, tab, anchor, [((1, 1), 1.0)])  # mu = 0 leaves RKHS


def test_source_target_matches_scalar_addition_theorem():
    spec = build_kernel([activation("exp"), activation("square")], 3, 3)
    tab = lambda_table(spec.f1, 3, 4, spec.q_cap)
    anchor = sample_uniform(3, 3, 44)
    profiles = [((2, 1), 0.7), ((0, 4), -1.2), ((3,), 0.4)]
    tgt = SourceTarget(spec, tab, anchor, profiles, beta=1.5)
    xs = sample_uniform_batch(6, 3, 3, 45)
    want = []
    for x in xs:
        total = 0.0
        for prof, coeff in profiles:
            prof = canonical_profile(prof, 3)
            mu = mu_eigenvalue(spec, prof, tab) * tab.kappa ** 3
            term = coeff * mu ** 0.75
            for i, k in enumerate(prof):
                term *= scalar_zonal_feature(k, 3, x.patches[i],
                                             anchor.patches[i])
            total += term
        want.append(total)
    np.testing.assert_allclose(tgt.batch(xs), want, rtol=1e-12, atol=0.0)


def test_learning_curve_zero_target():
    spec = build_kernel(EI, 1, 3)
    rows = learning_curve(spec, lambda x: 0.0, Schedule(beta=2.0),
                          [8, 16], test_size=50, seed=0)
    assert all(r["test_mse"] <= 1e-20 for r in rows)


def test_learning_curve_train_mse_from_fit_gram():
    spec = build_kernel([activation("square"), activation("square")], 2, 4)
    target = lambda x: float(x.patches[0, 0] * x.patches[1, 1])
    sched = Schedule(beta=2.0)
    rows = learning_curve(spec, target, sched, [40, 90], test_size=20, seed=3)
    for row in rows:
        ell = row["ell"]
        train = sample_uniform_batch(ell, 2, 4, (3, ell, 0))
        data = Dataset(xs=tuple(train), ys=apply_target(target, train))
        fit = rls_fit(spec, data, schedule_lambda(sched, ell, 4, spec.d_star))
        want = mse(predict(spec, fit, train), data.ys)
        assert want > 1e-6
        assert row["train_mse"] == pytest.approx(want, rel=1e-12)


def test_learning_curve_zonal_target_and_threads():
    spec = build_kernel(EI, 1, 3)
    tab = lambda_table(spec.f1, 3, 3, spec.q_cap)
    anchor = sample_uniform(1, 3, 4242)
    tgt = SourceTarget(spec, tab, anchor, [((1,), 1.0)])
    rows = learning_curve(spec, tgt, Schedule(beta=2.0), [64, 512],
                          test_size=600, seed=1)
    var = float(np.var(apply_target(tgt, sample_uniform_batch(600, 1, 3, 9))))
    assert rows[1]["test_mse"] <= 0.10 * var
    # thread pool returns the same rows in the same order
    rows_t = learning_curve(spec, tgt, Schedule(beta=2.0), [64, 512],
                            test_size=600, seed=1, threads=2)
    assert rows == rows_t
