import math

import numpy as np
import pytest

from harmonica.activations import KINDS, activation, evaluate
from harmonica.cnn import (POOLINGS, NetworkParams, forward, gaussian_pooling,
                           random_params)
from harmonica.errors import StructuralError
from harmonica.image import sample_uniform, sample_uniform_batch
from harmonica.kernel import build_kernel
from harmonica.krr import Dataset, predict, rls_fit

from helpers import activation_with

SQ2 = [activation("square"), activation("square")]


def two_layer_params(w1, w2, w_out):
    W1 = np.asarray([w1], dtype=float)
    W2 = np.asarray([w2], dtype=float)
    return NetworkParams(
        d_sizes=(2, 2), p_sizes=(1, 1, 1), n_sizes=(2, 1),
        weights=(W1, W2),
        poolings=(np.eye(2), np.eye(1)),
        w_out=np.asarray(w_out, dtype=float), boundary="valid")


def test_zero_weights_give_zero():
    params = two_layer_params([0.0, 0.0], [0.0, 0.0], [0.0])
    xs = sample_uniform_batch(3, 2, 2, 1)
    assert np.array_equal(forward(params, SQ2, xs), np.zeros(3))


def test_hand_expanded_two_layer_polynomial(rng):
    # with square activations and no pooling the network is
    # e * (c1 <x1,w>^2 + c2 <x2,w>^2)^2, expanded against the direct formula
    a, b, c1, c2, e = 0.3, -0.7, 1.1, 0.4, 2.0
    params = two_layer_params([a, b], [c1, c2], [e])
    xs = sample_uniform_batch(5, 2, 2, 3)
    u = xs @ np.array([a, b])  # (5, 2)
    want = e * (c1 * u[:, 0] ** 2 + c2 * u[:, 1] ** 2) ** 2
    np.testing.assert_allclose(forward(params, SQ2, xs), want, rtol=1e-13)


def test_output_linear_in_prediction_weights():
    params = two_layer_params([0.5, 1.0], [1.0, -2.0], [1.5])
    scaled = two_layer_params([0.5, 1.0], [1.0, -2.0], [4.5])
    xs = sample_uniform_batch(4, 2, 2, 4)
    np.testing.assert_allclose(forward(scaled, SQ2, xs),
                               3.0 * forward(params, SQ2, xs))


def _forward_one(params, activations, x):
    """Reference forward pass of one (n, d) patched image: the per-sample
    loop the batched forward replaced, windows extracted row by row."""
    state = x
    for k in range(params.num_layers):
        post = evaluate(activations[k], state @ params.weights[k].T)
        pooled = params.poolings[k] @ post
        if k == params.num_layers - 1:
            return float(np.dot(pooled.reshape(-1), params.w_out))
        n_k, width = pooled.shape[0], params.d_sizes[k + 1]
        count = n_k if params.boundary == "circular" else n_k - width + 1
        state = np.asarray([
            pooled[[(q + l) % n_k for l in range(width)]].reshape(-1)
            for q in range(count)])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("boundary,pooling", [
    ("circular", "identity"), ("valid", "identity"),
    ("circular", "gaussian"), ("valid", "gaussian")])
def test_batched_forward_matches_per_sample(kind, boundary, pooling):
    act = activation_with(kind, coeffs=[0.5, -1.0, 0.25], ratio=0.3)
    xs = sample_uniform_batch(30, 5, 4, 9)
    for filters, patch_sizes in (([3, 2], [2]), ([2, 3, 1], [3, 2])):
        params = random_params(5, 4, filters, patch_sizes, seed=5,
                               boundary=boundary, pooling=pooling)
        acts = [act] * len(filters)
        want = [_forward_one(params, acts, x) for x in xs]
        got = forward(params, acts, xs)
        assert got.shape == (30,)
        # the readout is a cancelling sum, so a label near zero is held to
        # 1e-13 of the largest label rather than of itself
        np.testing.assert_allclose(got, want, rtol=1e-13,
                                   atol=1e-13 * np.abs(want).max())


def test_random_params_refuses_unknown_pooling():
    with pytest.raises(ValueError, match="pooling must be one of"):
        random_params(2, 4, filters=[1], seed=0, pooling="nonsense")
    for pooling in POOLINGS:
        random_params(2, 4, filters=[1], seed=0, pooling=pooling)


def test_forward_refuses_mismatched_batch():
    params = random_params(2, 4, filters=[1, 1], patch_sizes=[2], seed=0)
    with pytest.raises(StructuralError):
        forward(params, SQ2, sample_uniform(2, 4, 0))  # one image, no batch
    with pytest.raises(StructuralError):
        forward(params, SQ2, sample_uniform_batch(3, 2, 3, 0))


def test_random_params_reproducible_and_shaped():
    p1 = random_params(4, 4, filters=[3, 2], patch_sizes=[2], seed=7)
    p2 = random_params(4, 4, filters=[3, 2], patch_sizes=[2], seed=7)
    assert all(np.array_equal(a, b) for a, b in zip(p1.weights, p2.weights))
    assert np.array_equal(p1.w_out, p2.w_out)
    # shape chain: layer 1 maps (n=4, d*p=4) through 3 filters
    assert p1.weights[0].shape == (3, 4)
    assert p1.weights[1].shape == (2, 2 * 3)
    assert p1.n_sizes == (4, 4)  # circular keeps the patch count
    p3 = random_params(4, 4, filters=[3, 2], patch_sizes=[2], seed=8)
    assert any(not np.array_equal(a, b) for a, b in zip(p1.weights, p3.weights))


def test_boundary_modes():
    pv = random_params(5, 4, filters=[1, 1], patch_sizes=[3], seed=0,
                       boundary="valid")
    assert pv.n_sizes == (5, 3)
    pc = random_params(5, 4, filters=[1, 1], patch_sizes=[3], seed=0,
                       boundary="circular")
    assert pc.n_sizes == (5, 5)
    with pytest.raises(StructuralError):
        random_params(2, 4, filters=[1, 1], patch_sizes=[5], seed=0,
                      boundary="valid")


def test_shape_validation():
    with pytest.raises(StructuralError):
        NetworkParams((2,), (1, 1), (2,), (np.zeros((1, 3)),),
                      (np.eye(2),), np.zeros(2))


def test_gaussian_pooling_rows_normalized():
    g = gaussian_pooling(6, width=1.5)
    np.testing.assert_allclose(g.sum(axis=1), 1.0)
    assert g[0, 5] < g[0, 1]


def test_labels_bounded_by_weight_norms():
    # a-priori bound for square activations on unit patches: each layer's
    # entries are bounded by (state_bound * max row norm)^2, pooling rows
    # are convex weights, and the prediction is Cauchy-Schwarz-bounded
    params = random_params(2, 4, filters=[1, 1], patch_sizes=[2], seed=42,
                           boundary="valid")
    entry_bound = 1.0  # unit patches
    for k in range(params.num_layers):
        vec_bound = entry_bound * math.sqrt(params.d_sizes[k] * params.p_sizes[k])
        row_norms = np.linalg.norm(params.weights[k], axis=1)
        entry_bound = (vec_bound * row_norms.max()) ** 2
    final_dim = params.n_sizes[-1] * params.p_sizes[-1]
    bound = np.linalg.norm(params.w_out) * entry_bound * math.sqrt(final_dim)
    labels = forward(params, SQ2, sample_uniform_batch(50, 2, 4, 8))
    assert np.all(np.isfinite(labels))
    assert np.abs(labels).max() <= bound


def test_polynomial_network_contained_in_matching_kernel():
    # square-activation networks are polynomials in the patches; the matching
    # kernel interpolates them at vanishing regularization
    spec = build_kernel(SQ2, 2, 2)
    params = random_params(2, 2, filters=[1, 1], patch_sizes=[2], seed=1,
                           boundary="valid")
    xs = sample_uniform_batch(40, 2, 2, 11)
    ys = forward(params, SQ2, xs)
    fit = rls_fit(spec, Dataset(xs=xs, ys=ys), 1e-10)
    resid = np.abs(predict(spec, fit, xs) - ys).max()
    assert resid <= 1e-6
