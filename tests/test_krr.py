import logging
import math
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from harmonica import krr
from harmonica.activations import activation
from harmonica.errors import SolverError, StructuralError
from harmonica.image import sample_uniform, sample_uniform_batch
from harmonica.kernel import build_kernel, cross_gram, eval_kernel, gram
from harmonica.krr import (Dataset, Schedule, SourceTarget,
                           closed_form_top_eigs, learning_curve, mse,
                           nystrom_eigs, predict, rls_fit, schedule_lambda)
from harmonica.spectrum import (canonical_profile, enumerate_spectrum,
                                lambda_table, mu_eigenvalue)

from conftest import scalar_zonal_feature
from helpers import (constant_kernel, pack, peak_rise, rls_objective,
                     strided_cho_factor, unpack)

EI = [activation("exp"), activation("identity")]


def test_rls_single_point_closed_form():
    spec = build_kernel(EI, 1, 3)
    x1 = sample_uniform(1, 3, 1)
    fit = rls_fit(spec, Dataset(xs=x1[None], ys=[2.0]), 0.5)
    xq = sample_uniform(1, 3, 2)
    want = 2.0 * eval_kernel(spec, xq, x1) / (eval_kernel(spec, x1, x1) + 0.5)
    assert predict(spec, fit, xq[None])[0] == pytest.approx(want, rel=1e-12)


def test_rls_huge_lambda_shrinks_to_zero():
    spec = build_kernel(EI, 1, 3)
    xs = sample_uniform_batch(12, 1, 3, 3)
    ys = np.linspace(-1.0, 1.0, 12)
    fit = rls_fit(spec, Dataset(xs=xs, ys=ys),
                  1e6 * spec.diag_value())
    assert np.abs(predict(spec, fit, xs)).max() <= 1e-3 * np.abs(ys).max()


def test_rls_interpolates_at_tiny_lambda():
    spec = build_kernel([activation("exp"), activation("exp")], 2, 3)
    xs = sample_uniform_batch(20, 2, 3, 5)
    rng = np.random.default_rng(0)
    ys = rng.standard_normal(20)
    fit = rls_fit(spec, Dataset(xs=xs, ys=ys), 1e-10)
    assert np.abs(predict(spec, fit, xs) - ys).max() <= 1e-6


def test_rls_objective_no_worse_than_zero():
    spec = build_kernel(EI, 2, 3)
    xs = sample_uniform_batch(15, 2, 3, 8)
    rng = np.random.default_rng(4)
    ys = rng.standard_normal(15)
    for lam in (1e-6, 1e-2, 1.0):
        fit = rls_fit(spec, Dataset(xs=xs, ys=ys), lam)
        assert rls_objective(spec, Dataset(xs=xs, ys=ys), fit) \
            <= np.mean(ys ** 2) + 1e-12


def test_prediction_linear_in_labels():
    spec = build_kernel(EI, 1, 3)
    xs = sample_uniform_batch(10, 1, 3, 9)
    rng = np.random.default_rng(1)
    ys = rng.standard_normal(10)
    fit1 = rls_fit(spec, Dataset(xs=xs, ys=ys), 0.1)
    fit2 = rls_fit(spec, Dataset(xs=xs, ys=2.0 * ys), 0.1)
    q = sample_uniform_batch(5, 1, 3, 10)
    np.testing.assert_allclose(predict(spec, fit2, q),
                               2.0 * predict(spec, fit1, q), atol=1e-10)


@pytest.mark.parametrize("ell", [1, 127, 128, 129, 255, 256, 257, 511, 512,
                                 513, 1025, 1600])
def test_blocked_cho_solve_matches_dense_solve(ell):
    # sizes on, just below and just past multiples of the block, for the
    # blocked factor and the blocked substitutions, and of the panel chunk
    # (PANEL_COLS = 512): at ell = 1025 the row blocks at rows 384 and 512
    # (641 and 513 columns wide) end their inverse product and their
    # update in a chunk of one column
    assert krr.PANEL_COLS == 512
    rng = np.random.default_rng(ell)
    X = rng.standard_normal((ell, ell))
    A = X @ X.T / ell + np.eye(ell)
    b = rng.standard_normal(ell)
    b0 = b.copy()
    g = pack(A, 128)
    assert krr.cho_factor(g) is g  # factored in place
    ref = np.linalg.cholesky(A).T
    scale = np.abs(ref).max()
    for r0, r1, B in g._blocks:
        w = r1 - r0
        # the rest of the row block is R's
        assert np.abs(B[:, w:] - ref[r0:r1, r1:]).max(initial=0.0) \
            <= 1e-13 * scale
        # the diagonal square is R_ii^-T, lower triangular; times R_ii^T
        # it is I within 1e-14 (measured: at most 4.4e-16, at ell = 1600)
        assert not np.triu(B[:, :w], 1).any()
        assert np.abs(B[:, :w] @ ref[r0:r1, r0:r1].T - np.eye(w)).max() \
            <= 1e-14
    got = krr.cho_solve(g, b)
    want = np.linalg.solve(A, b)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert np.array_equal(b, b0)  # the right-hand side is not overwritten


@pytest.mark.parametrize("ell", [511, 512, 513, 1025, 1600])
def test_cho_factor_is_the_strided_loop_bit_for_bit(ell):
    # the chunk is updated in a contiguous copy, with the same products
    # subtracted in the same order, so the factor is bitwise the one the
    # loop that subtracts from the strided chunk itself gives
    rng = np.random.default_rng(ell)
    X = rng.standard_normal((ell, ell))
    A = X @ X.T / ell + np.eye(ell)
    got = unpack(krr.cho_factor(pack(A, 128)))
    assert np.array_equal(got, unpack(strided_cho_factor(pack(A, 128))))


def test_cho_factor_refuses_indefinite_matrix():
    with pytest.raises(np.linalg.LinAlgError):
        krr.cho_factor(pack(np.array([[1.0, 2.0], [2.0, 1.0]]), 128))


def test_cho_factor_refuses_failure_in_last_block():
    # positive definite except in its last diagonal block (rows 256-299):
    # every diagonal entry stays positive, but the last pivot, the Schur
    # complement of the leading 299 x 299 block, turns negative
    ell = 300
    X = np.random.default_rng(3).standard_normal((ell, ell))
    A = X @ X.T / ell + np.eye(ell)
    head = A[:-1, :-1]
    schur = A[-1, -1] - A[-1, :-1] @ np.linalg.solve(head, A[:-1, -1])
    A[-1, -1] -= 1.01 * schur
    assert np.all(np.diag(A) > 0)
    np.linalg.cholesky(A[:256, :256])  # the earlier blocks factor
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(A)
    with pytest.raises(np.linalg.LinAlgError):
        krr.cho_factor(pack(A, 128))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_rls_fit_holds_gram_only():
    """A fit keeps the Gram packed and factors it in its own blocks: the
    rise of the peak resident memory stays under half the 19.5 MiB dense
    Gram plus 3 MiB (the diagonal squares, 0.8 MiB; the factor's two
    0.5 MiB scratch arrays and the rest). It rose by about 12.2 MiB (11.7
    with one scratch array, subtracting from strided chunks); with the
    blocks at the tail of an ell x ell buffer, a 128 x ell scratch and the
    block inverses kept apart it rose by about 15.5 MiB, and with the
    dense Gram factored in place by about 21.9 MiB."""
    ell = 1600
    rise = peak_rise([
        "import numpy as np",
        "from harmonica.activations import activation",
        "from harmonica.image import sample_uniform_batch",
        "from harmonica.kernel import build_kernel",
        "from harmonica.krr import Dataset, rls_fit",
        "spec = build_kernel([activation('exp'), activation('identity')],"
        " 1, 3)",
        "def data(ell):",
        "    return Dataset(xs=sample_uniform_batch(ell, 1, 3, 2),",
        "                   ys=np.random.default_rng(2).standard_normal(ell))",
        "rls_fit(spec, data(40), 1e-3)",  # loads what a fit uses
        f"train = data({ell})",
    ], "rls_fit(spec, train, 1e-3)")
    assert rise <= 0.5 * ell * ell * 8 + 3 * 2 ** 20, rise / 2 ** 20


def _check_fitted(fit, ys, shift, G):
    """fitted is y - shift c bit for bit, and G c within 1e-12 relative
    (measured: 3e-14 at ell = 300, 2e-13 at ell = 1600)."""
    assert fit.fitted.tobytes() == (ys - shift * fit.coeffs).tobytes()
    want = G @ fit.coeffs
    assert np.linalg.norm(fit.fitted - want) <= 1e-12 * np.linalg.norm(want)


def test_rls_fitted_values_are_gram_times_coeffs(monkeypatch):
    """The fitted values are y minus the solve's diagonal shift times c,
    which is G c up to the solve's residual, with or without a retry."""
    spec = build_kernel([activation("exp"), activation("square")], 2, 3)
    ell, lam = 300, 1e-2
    xs = sample_uniform_batch(ell, 2, 3, 13)
    data = Dataset(xs=xs, ys=np.random.default_rng(6).standard_normal(ell))
    G = np.asarray(gram(spec, xs))
    plain = rls_fit(spec, data, lam)
    _check_fitted(plain, data.ys, lam * ell, G)
    calls = _failing_cho_factor(monkeypatch, failures=1)
    retried = rls_fit(spec, data, lam)
    assert len(calls) == 2
    jitter = 1e-12 * np.diag(G).sum() / ell
    _check_fitted(retried, data.ys, lam * ell + jitter, G)


def test_rls_fit_matches_dense_solve():
    spec = build_kernel([activation("exp"), activation("square")], 2, 3)
    ell, lam = 300, 1e-2
    xs = sample_uniform_batch(ell, 2, 3, 12)
    ys = np.random.default_rng(5).standard_normal(ell)
    fit = rls_fit(spec, Dataset(xs=xs, ys=ys), lam)
    G = gram(spec, xs)
    want = np.linalg.solve(G + lam * ell * np.eye(ell), ys)
    assert np.linalg.norm(fit.coeffs - want) <= 1e-12 * np.linalg.norm(want)


def _failing_cho_factor(monkeypatch, failures):
    """Make krr.cho_factor raise LinAlgError on its first `failures` calls;
    returns the matrices it was called with, unpacked (upper row blocks,
    zeros below them)."""
    real = krr.cho_factor
    calls = []

    def cho_factor(g):
        calls.append(unpack(g))
        if len(calls) <= failures:
            raise np.linalg.LinAlgError("not positive definite")
        return real(g)

    monkeypatch.setattr(krr, "cho_factor", cho_factor)
    return calls


def _partial_cho_factor(monkeypatch, failures):
    """Make krr.cho_factor factor its argument in place, as the real one
    does, and then raise LinAlgError, on its first `failures` calls: the
    Gram is left part matrix, part factor. Returns the matrices it was
    called with, unpacked (upper row blocks, zeros below them)."""
    real = krr.cho_factor
    calls = []

    def cho_factor(g):
        calls.append(unpack(g))
        factor = real(g)
        if len(calls) <= failures:
            raise np.linalg.LinAlgError("not positive definite")
        return factor

    monkeypatch.setattr(krr, "cho_factor", cho_factor)
    return calls


def test_rls_retry_after_partial_write_restores_gram(monkeypatch):
    """A failed factorization has written over the packed Gram; the retry
    rebuilds it and factors exactly G + lambda l I + jitter I, and the
    fitted values are y - (lambda l + jitter) c bit for bit."""
    spec = build_kernel([activation("exp"), activation("square")], 2, 3)
    ell, lam = 300, 1e-2
    xs = sample_uniform_batch(ell, 2, 3, 13)
    data = Dataset(xs=xs, ys=np.random.default_rng(6).standard_normal(ell))
    G = np.asarray(gram(spec, xs))
    diag = np.diag_indices(ell)
    calls = _partial_cho_factor(monkeypatch, failures=1)
    fit = rls_fit(spec, data, lam)
    assert len(calls) == 2
    jitter = 1e-12 * G[diag].sum() / ell
    want = G.copy()
    want[diag] += lam * ell
    want[diag] += jitter
    assert np.triu(calls[1]).tobytes() == np.triu(want).tobytes()
    _check_fitted(fit, data.ys, lam * ell + jitter, G)


def test_rls_solver_error_after_partial_writes(monkeypatch):
    """Both factorizations write over the Gram before they fail; the
    condition number is still that of G + lambda l I."""
    spec = build_kernel([activation("exp"), activation("square")], 2, 3)
    ell, lam = 300, 1e-2
    xs = sample_uniform_batch(ell, 2, 3, 13)
    data = Dataset(xs=xs, ys=np.random.default_rng(6).standard_normal(ell))
    calls = _partial_cho_factor(monkeypatch, failures=math.inf)
    with pytest.raises(SolverError) as info:
        rls_fit(spec, data, lam)
    assert len(calls) == 2
    want = np.linalg.cond(gram(spec, xs) + lam * ell * np.eye(ell))
    assert info.value.condition == pytest.approx(want, rel=1e-12)


def test_rls_cholesky_jitter_retry(monkeypatch):
    spec = build_kernel(EI, 1, 3)
    xs = sample_uniform_batch(12, 1, 3, 11)
    data = Dataset(xs=xs, ys=np.linspace(-1.0, 1.0, 12))
    plain = rls_fit(spec, data, 1e-3)
    calls = _failing_cho_factor(monkeypatch, failures=1)
    fit = rls_fit(spec, data, 1e-3)
    assert len(calls) == 2
    G = np.asarray(gram(spec, xs))
    jitter = 1e-12 * np.trace(G) / 12
    np.testing.assert_allclose(calls[1] - calls[0], jitter * np.eye(12),
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(fit.coeffs, plain.coeffs, rtol=1e-8)
    np.testing.assert_allclose(fit.fitted, G @ fit.coeffs, rtol=1e-12)


def test_rls_cholesky_failure_is_solver_error(monkeypatch):
    spec = build_kernel(EI, 1, 3)
    xs = sample_uniform_batch(12, 1, 3, 11)
    data = Dataset(xs=xs, ys=np.linspace(-1.0, 1.0, 12))
    calls = _failing_cho_factor(monkeypatch, failures=math.inf)
    with pytest.raises(SolverError) as info:
        rls_fit(spec, data, 1e-3)
    assert len(calls) == 2
    want = np.linalg.cond(gram(spec, xs) + 1e-3 * 12 * np.eye(12))
    assert info.value.condition == pytest.approx(want, rel=1e-12)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_predict_blocks_match_whole_cross_gram():
    """predict takes the kernel values BLOCK test points at a time: the
    same values as one whole cross_gram product (bitwise here; within
    1e-13 relative is asserted), without the count x ell array."""
    spec = build_kernel([activation("exp"), activation("exp")], 2, 3)
    ell, count = 1600, 1000
    xs = sample_uniform_batch(ell, 2, 3, 1)
    fit = rls_fit(spec, Dataset(xs=xs, ys=np.sin(np.arange(ell))), 1e-2)
    test = sample_uniform_batch(count, 2, 3, 2)
    want = cross_gram(spec, test, xs) @ fit.coeffs
    tracemalloc.start()
    try:
        got = predict(spec, fit, test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # one BLOCK x ell block of kernel values (1.6 MiB) and the fill's
    # scratch tiles; the whole array would be 12.2 MiB
    assert peak <= krr.BLOCK * ell * 8 + 2 ** 20, peak / 2 ** 20


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


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_nystrom_keeps_half_a_gram_resident():
    """On the Krylov route (the benchmark's ell = 2000 rank-20 Gram) the
    Gram stays packed: the rise of the peak resident memory of
    nystrom_eigs stays under half the 30.5 MiB dense Gram plus 4 MiB for
    the diagonal squares (1 MiB), the basis and the rest. It rose by about
    18.2 MiB; with the blocks at the tail of an ell x ell buffer by about
    20.3 MiB, and with the dense Gram by about 33 MiB."""
    ell = 2000
    rise = peak_rise([
        "from harmonica.activations import activation",
        "from harmonica.kernel import build_kernel",
        "from harmonica.krr import nystrom_eigs",
        "spec = build_kernel([activation('identity'), activation('square')],"
        " 2, 3)",
        "nystrom_eigs(spec, 40, 10, seed=1)",  # loads what a run uses
    ], f"nystrom_eigs(spec, {ell}, 10, seed=0)")
    assert rise <= 0.5 * ell * ell * 8 + 4 * 2 ** 20, rise / 2 ** 20


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_dense_eigvalsh_route_peak():
    """The dense route unpacks the packed Gram into a new array while the
    packed one is still held, and np.linalg.eigvalsh copies its input, so
    at ell = 2000 its peak rises by about two dense Grams (61.0 MiB). It
    rose by about 62.3 MiB; with the blocks unpacked in place at the tail
    of an ell x ell buffer by about 62.5 MiB, which the bound allows
    1 MiB over."""
    ell = 2000
    rise = peak_rise([
        "from harmonica import krr",
        "from harmonica.activations import activation",
        "from harmonica.image import sample_uniform_batch",
        "from harmonica.kernel import build_kernel",
        "spec = build_kernel([activation('identity'), activation('square')],"
        " 2, 3)",
        "krr.KRYLOV_SHARE = 0.0",  # no Krylov step: straight to dense
        "krr.eigvalsh(krr.gram(spec, sample_uniform_batch(40, 2, 3, 1)), 10)",
        f"xs = sample_uniform_batch({ell}, 2, 3, 0)",
    ], "krr.eigvalsh(krr.gram(spec, xs), 10)")
    assert rise <= 2 * ell * ell * 8 + 2.5 * 2 ** 20, rise / 2 ** 20


def _psd_with_spectrum(eigs, seed):
    """Q diag(eigs) Q^T for a random orthogonal Q, exactly symmetric."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((eigs.size, eigs.size)))
    a = (q * eigs) @ q.T
    return (a + a.T) / 2


def _eigvalsh_routes(a, k, caplog):
    """krr.eigvalsh(a, k) and the INFO records it logged."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="harmonica.krr"):
        got = krr.eigvalsh(a, k)
    return got, [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("eigvalsh:")]


@settings(max_examples=60, deadline=None)
@given(ell=st.integers(40, 400), rank=st.integers(0, 400),
       decay=st.floats(0.3, 0.995), multiplet=st.booleans(),
       k=st.one_of(st.integers(1, 12), st.integers(1, 400)),
       seed=st.integers(0, 2 ** 16))
# the benchmark's shape: a simple top eigenvalue, then a 9-fold multiplet
# (the (1, 1) profile), rank 20, top 10
@example(ell=200, rank=20, decay=0.9, multiplet=True, k=10, seed=0)
# k past the rank, and every eigenvalue
@example(ell=160, rank=12, decay=0.5, multiplet=True, k=30, seed=1)
@example(ell=40, rank=40, decay=0.99, multiplet=False, k=40, seed=2)
def test_eigvalsh_matches_dense_eigvalsh(ell, rank, decay, multiplet, k,
                                         seed):
    rank, k = min(rank, ell), min(k, ell)
    eigs = np.zeros(ell)
    eigs[:rank] = decay ** np.arange(rank)
    if multiplet and rank >= 10:
        eigs[1:10] = eigs[1]
    a = _psd_with_spectrum(eigs, seed)
    want = np.linalg.eigvalsh(a)[::-1][:k]
    # at these sizes the cost budget mostly picks the dense route; with no
    # budget the Krylov route runs until it converges or fills ell columns.
    # Both routes also take the matrix packed, in blocks of 128, 56 or 8
    # rows (the dense route unpacks it)
    block = (128, 56, 8)[seed % 3]
    for share in (krr.KRYLOV_SHARE, math.inf):
        for x in (a, pack(a, block)):
            with mock.patch.object(krr, "KRYLOV_SHARE", share):
                got = krr.eigvalsh(x, k)
            assert got.shape == (k,)
            assert np.abs(got - want).max() <= 1e-9 * abs(want[0])


def _identity_square_gram(ell, seed):
    spec = build_kernel([activation("identity"), activation("square")], 2, 3)
    return gram(spec, sample_uniform_batch(ell, 2, 3, seed))


def test_eigvalsh_bitwise_deterministic(caplog):
    G = _identity_square_gram(1000, 5)
    first, routes = _eigvalsh_routes(G, 10, caplog)
    assert len(routes) == 1 and "Krylov route" in routes[0], routes
    assert first.tobytes() == krr.eigvalsh(G, 10).tobytes()


def test_eigvalsh_benchmark_gram_takes_krylov_route(caplog):
    # the gram-eig benchmark shape: ell = 2000, k = 10, rank-20 Gram
    G = _identity_square_gram(2000, 0)
    got, routes = _eigvalsh_routes(G, 10, caplog)
    assert len(routes) == 1 and "Krylov route" in routes[0], routes
    np.testing.assert_allclose(got, np.linalg.eigvalsh(G)[::-1][:10],
                               rtol=1e-12)


def test_eigvalsh_small_gram_takes_dense_route_at_once(caplog):
    # ell = 400, k = 12: the budget pays for one block step of 24 columns,
    # not for the two that any convergence needs
    assert krr._krylov_columns(400, 24) == 24
    G = _identity_square_gram(400, 8)
    got, routes = _eigvalsh_routes(G, 12, caplog)
    assert len(routes) == 1 and "dense route" in routes[0], routes
    assert "0 block steps" in routes[0], routes
    assert got.tobytes() == np.linalg.eigvalsh(G)[::-1][:12].tobytes()


def test_eigvalsh_slow_spectrum_falls_back_after_two_steps(caplog):
    # a nearly flat spectrum: the residual shrinks about twofold per step,
    # so the trend after two steps already passes the column budget
    i = np.arange(1, 1001)
    a = _psd_with_spectrum(1 + 1e-3 * np.sin(i), 0)
    got, routes = _eigvalsh_routes(a, 10, caplog)
    assert len(routes) == 1 and "dense route" in routes[0], routes
    assert "2 block steps" in routes[0], routes
    assert got.tobytes() == np.linalg.eigvalsh(a)[::-1][:10].tobytes()


def test_eigvalsh_non_finite_product_takes_dense_route(caplog):
    # the Krylov route's products overflow; that is handled, not warned
    a = np.full((1000, 1000), np.finfo(float).max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, routes = _eigvalsh_routes(a, 1, caplog)
    assert routes == ["eigvalsh: dense route, ell=1000 k=1: non-finite "
                      "Gram product"], routes


def test_rls_fit_logs_jitter_retry(monkeypatch, caplog):
    real = krr.cho_factor
    calls = []

    def fail_first(g):
        calls.append(g)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("not positive definite")
        return real(g)

    monkeypatch.setattr(krr, "cho_factor", fail_first)
    spec = build_kernel(EI, 1, 3)
    data = Dataset(xs=sample_uniform_batch(20, 1, 3, 1), ys=np.ones(20))
    with caplog.at_level(logging.INFO, logger="harmonica.krr"):
        rls_fit(spec, data, 0.1)
    assert len(calls) == 2
    assert any("jitter" in r.getMessage() for r in caplog.records)


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
    np.testing.assert_allclose(tgt(xs), [tgt(x[None])[0] for x in xs],
                               rtol=1e-12)
    with pytest.raises(ValueError):
        SourceTarget(spec, tab, anchor, [((1, 1), 1.0)])  # mu = 0 leaves RKHS


def test_source_target_refuses_batches_outside_the_kernel_layout():
    spec = build_kernel(EI, 2, 3)
    tab = lambda_table(spec.f1, 3, 4, spec.q_cap)
    tgt = SourceTarget(spec, tab, sample_uniform(2, 3, 42), [((1, 0), 1.0)])
    xs = sample_uniform_batch(3, 2, 3, 43)
    for bad in (xs[0], xs[:, :1], np.zeros((3, 2, 4)), np.zeros((3, 3, 3))):
        with pytest.raises(StructuralError):
            tgt(bad)


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
                term *= scalar_zonal_feature(k, 3, x[i], anchor[i])
            total += term
        want.append(total)
    np.testing.assert_allclose(tgt(xs), want, rtol=1e-12, atol=0.0)


def test_learning_curve_zero_target():
    spec = build_kernel(EI, 1, 3)
    rows = learning_curve(spec, lambda xs: np.zeros(len(xs)),
                          Schedule(beta=2.0), [8, 16], test_size=50, seed=0)
    assert all(r["test_mse"] <= 1e-20 for r in rows)


def test_learning_curve_train_mse_from_fit_gram():
    spec = build_kernel([activation("square"), activation("square")], 2, 4)
    target = lambda xs: xs[:, 0, 0] * xs[:, 1, 1]
    sched = Schedule(beta=2.0)
    rows = learning_curve(spec, target, sched, [40, 90], test_size=20, seed=3)
    for row in rows:
        ell = row["ell"]
        train = sample_uniform_batch(ell, 2, 4, (3, ell, 0))
        data = Dataset(xs=train, ys=target(train))
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
    var = float(np.var(tgt(sample_uniform_batch(600, 1, 3, 9))))
    assert rows[1]["test_mse"] <= 0.10 * var
    # thread pool returns the same rows in the same order
    rows_t = learning_curve(spec, tgt, Schedule(beta=2.0), [64, 512],
                            test_size=600, seed=1, threads=2)
    assert rows == rows_t
