import math
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from harmonica import kernel
from harmonica.activations import activation
from harmonica.errors import ConvergenceError, StructuralError, TruncationError
from harmonica.image import sample_uniform, sample_uniform_batch
from harmonica.kernel import (TruncationConfig, build_kernel, cross_gram,
                              eval_kernel, feature_count, feature_gram,
                              features, gram)
from harmonica.taylor import eval_series

from helpers import constant_kernel, dense_gram, outer_degree, top_index


def test_build_square_outer():
    spec = build_kernel([activation("exp"), activation("square")], 3, 4)
    assert spec.g.coeffs[:4] == (0.0, 0.0, 1.0, 0.0)
    assert spec.D == 2.0 and spec.d_star == 2


def test_build_square_chain_degree():
    spec = build_kernel([activation("square")] * 3, 3, 4)
    assert spec.D == 4.0
    assert spec.d_star == min(4, 3)
    # the example bound: d* <= min(2^(N-1), n) for N=3 quadratic outer layers
    assert spec.d_star <= min(2 ** 2, 3)


def test_build_exp_outer_infinite_degree():
    spec = build_kernel([activation("exp"), activation("exp")], 2, 3)
    assert spec.D == math.inf
    assert spec.d_star == 2  # capped by n


# polynomial layers: square, identity, or poly/custom coefficients of
# degree <= 8 with a nonzero top coefficient (so the degree is the length)
_POLY_LAYERS = st.one_of(
    st.sampled_from([activation("square"), activation("identity")]),
    st.builds(lambda kind, body, top: activation(kind, coeffs=body + [top]),
              st.sampled_from(["poly", "custom"]),
              st.lists(st.sampled_from([0.0, 0.5, -1.0, 2.0]), max_size=8),
              st.sampled_from([0.5, -1.0, 2.0])))


def _layer_degree(a):
    return {"square": 2, "identity": 1}.get(a.kind) or len(a.coeffs) - 1


@settings(max_examples=80, deadline=None)
@given(layers=st.lists(_POLY_LAYERS, min_size=1, max_size=4),
       order=st.integers(1, 10), q_max=st.integers(1, 40),
       l_max=st.integers(1, 10))
# a top coefficient at Q_max: the layer states its degree, so the
# composition tail is exactly 0 and the polynomial composes whole
@example(layers=[activation("identity"), activation("identity"),
                 activation("poly", coeffs=[0.0] * 6 + [1.0, 1.0])],
         order=1, q_max=7, l_max=8)
def test_build_kernel_holds_or_refuses_polynomial_layers(layers, order,
                                                         q_max, l_max):
    """A polynomial layer is either held whole by its series or refused.

    Layer 1's series stops at order, the outer ones at Q_max, layers
    composed onto g (3 onward) keep powers up to L_max, and the composed
    outer degree D must fit in Q_max. A stack within all four builds f1 of
    layer 1's degree and g of degree D exactly; any other raises
    TruncationError.
    """
    trunc = TruncationConfig(series_order=order, q_max=q_max, l_max=l_max)
    degrees = [_layer_degree(a) for a in layers]
    D = math.prod(degrees[1:])
    if not (degrees[0] <= order and max(degrees[1:], default=0) <= q_max
            and max(degrees[2:], default=0) <= l_max and D <= q_max):
        with pytest.raises(TruncationError):
            build_kernel(layers, 2, 3, trunc)
        return
    spec = build_kernel(layers, 2, 3, trunc)
    assert spec.f1.degree == top_index(spec.f1) == degrees[0]
    assert spec.g.degree == top_index(spec.g) == spec.D == D


# the outer layers' kinds mixed: infinite series, polynomials and constants
_MIXED_LAYERS = st.one_of(
    st.sampled_from([activation("exp"), activation("geometric", ratio=0.3),
                     activation("erf_sigmoid"), activation("smooth_hinge"),
                     activation("poly", coeffs=[0.0]),
                     activation("poly", coeffs=[0.5])]),
    _POLY_LAYERS)


@settings(max_examples=80, deadline=None)
@given(layers=st.lists(_MIXED_LAYERS, min_size=1, max_size=4),
       q_max=st.integers(8, 48))
@example(layers=[activation("exp"), activation("poly", coeffs=[0.0]),
                 activation("exp")], q_max=16)
@example(layers=[activation("exp"), activation("exp"),
                 activation("poly", coeffs=[0.5])], q_max=16)
# g(1) = 2 * 5^8 before exp composes onto it: the tail's S^l overflows
@example(layers=[activation("exp"), activation("poly", coeffs=[-1, 2, 2, 2]),
                 activation("poly", coeffs=[0.0] * 8 + [2.0]),
                 activation("exp")], q_max=44)
def test_outer_degree_matches_layer_degree_rule(layers, q_max):
    # D is read from g's degree, which the series arithmetic carries; on
    # every stack that builds it is the product of the outer layers'
    # degrees read off their kinds, or 0 with a constant layer among them
    try:
        spec = build_kernel(layers, 2, 3, TruncationConfig(q_max=q_max))
    except (TruncationError, ConvergenceError):
        return  # refusals are the subject of the test above
    assert spec.D == outer_degree(layers)


def test_composition_whose_tail_overflows_is_refused():
    # S = g(1) = 2 * 5^8, so S^l leaves the double range in the tail
    # estimate of exp composed onto g: an infinite tail, not a crash
    layers = [activation("exp"), activation("poly", coeffs=[-1, 2, 2, 2]),
              activation("poly", coeffs=[0.0] * 8 + [2.0]), activation("exp")]
    with pytest.raises(ConvergenceError, match="tail estimate inf"):
        build_kernel(layers, 1, 3, TruncationConfig(q_max=44))


def test_eval_square_square():
    spec = build_kernel([activation("square"), activation("square")], 2, 4)
    x = sample_uniform(2, 4, 0)
    y = sample_uniform(2, 4, 1)
    t = np.einsum("nd,nd->n", x, y)
    assert eval_kernel(spec, x, y) == pytest.approx((t @ t) ** 2, rel=1e-13)
    assert eval_kernel(spec, x, x) == pytest.approx(4.0)


def test_eval_exp_identity_diag():
    spec = build_kernel([activation("exp"), activation("identity")], 1, 3)
    x = sample_uniform(1, 3, 2)
    tail = math.e - eval_series(spec.f1, 1.0)  # order-64 truncation remainder
    assert abs(eval_kernel(spec, x, x) - math.e) <= tail + 1e-12
    assert spec.diag_value() == pytest.approx(eval_kernel(spec, x, x))


def test_eval_symmetry_and_cauchy_schwarz(rng):
    spec = build_kernel([activation("exp"), activation("exp")], 2, 3)
    for i in range(10):
        x = sample_uniform(2, 3, (5, i))
        y = sample_uniform(2, 3, (6, i))
        kxy = eval_kernel(spec, x, y)
        assert kxy == eval_kernel(spec, y, x)
        assert kxy ** 2 <= eval_kernel(spec, x, x) * eval_kernel(spec, y, y) + 1e-12


def test_diag_identity():
    spec = build_kernel([activation("exp"), activation("square")], 3, 3)
    x = sample_uniform(3, 3, 9)
    want = eval_series(spec.g, 3 * eval_series(spec.f1, 1.0))
    assert eval_kernel(spec, x, x) == pytest.approx(want, rel=1e-14)


def test_patch_mismatch_rejected():
    spec = build_kernel([activation("exp"), activation("identity")], 2, 3)
    with pytest.raises(StructuralError):
        eval_kernel(spec, sample_uniform(1, 3, 0), sample_uniform(1, 3, 1))


def test_gram_single_point():
    spec = build_kernel([activation("square"), activation("square")], 2, 4)
    x = sample_uniform(2, 4, 3)
    G = np.asarray(gram(spec, [x]))
    assert G.shape == (1, 1)
    assert G[0, 0] == pytest.approx(eval_kernel(spec, x, x))


def test_gram_matches_pairwise_eval():
    for acts, n, d in [(["exp", "square"], 2, 3), (["exp", "exp"], 3, 4),
                       (["square", "square"], 1, 5)]:
        spec = build_kernel([activation(a) for a in acts], n, d)
        xs = sample_uniform_batch(9, n, d, 17)
        G = np.asarray(gram(spec, xs))
        assert np.array_equal(G, G.T)
        for i in range(9):
            for j in range(9):
                assert G[i, j] == pytest.approx(
                    eval_kernel(spec, xs[i], xs[j]), rel=1e-14)
        np.testing.assert_allclose(cross_gram(spec, xs, xs), G, rtol=1e-14)


def test_padded_series_give_bitwise_equal_grams():
    acts = [activation("square"), activation("square")]
    padded = build_kernel(acts, 2, 4)  # f1 and g padded to order 64
    exact = build_kernel(acts, 2, 4, TruncationConfig(series_order=2, q_max=2))
    assert (padded.f1.order, padded.g.order) == (64, 64)
    assert (exact.f1.order, exact.g.order) == (2, 2)
    xs = sample_uniform_batch(40, 2, 4, 31)
    ys = sample_uniform_batch(30, 2, 4, 32)
    assert np.array_equal(gram(padded, xs), gram(exact, xs))
    assert np.array_equal(cross_gram(padded, xs, ys), cross_gram(exact, xs, ys))
    assert eval_kernel(padded, xs[0], ys[0]) == eval_kernel(exact, xs[0], ys[0])
    assert padded.diag_value() == exact.diag_value()


def test_gram_universal_config_strictly_pd():
    spec = build_kernel([activation("exp"), activation("exp")], 2, 3)
    xs = sample_uniform_batch(50, 2, 3, 23)
    eigs = np.linalg.eigvalsh(gram(spec, xs))
    assert eigs.min() > 0.0


def test_gram_psd_across_configs(rng):
    for acts, n, d in [([activation("square")] * 2, 2, 4),
                       ([activation("exp"), activation("identity")], 1, 2),
                       ([activation("erf_sigmoid"), activation("square")], 3, 3)]:
        spec = build_kernel(acts, n, d)
        xs = sample_uniform_batch(25, n, d, (n, d))
        G = gram(spec, xs)
        assert np.linalg.eigvalsh(G).min() >= -1e-9 * np.trace(G)


def test_gram_duplicate_point_singular():
    spec = build_kernel([activation("exp"), activation("identity")], 1, 3)
    x = sample_uniform(1, 3, 5)
    xs = np.concatenate([[x, x], sample_uniform_batch(3, 1, 3, 6)])
    eigs = np.linalg.eigvalsh(gram(spec, xs))
    assert eigs.min() <= 1e-10 * np.trace(gram(spec, xs))


def test_cross_gram_shape():
    spec = build_kernel([activation("exp"), activation("identity")], 1, 3)
    A = cross_gram(spec, sample_uniform_batch(4, 1, 3, 0),
                   sample_uniform_batch(7, 1, 3, 1))
    assert A.shape == (4, 7)


def test_constant_kernel():
    spec = constant_kernel(2.5, 2, 3)
    x = sample_uniform(2, 3, 0)
    y = sample_uniform(2, 3, 1)
    assert eval_kernel(spec, x, y) == 2.5
    assert spec.d_star == 0


def test_truncation_config_from_dict():
    tc = TruncationConfig.from_dict({"K_max": 9, "A_max": 5, "Q_max": 32,
                                     "s_tol": 1e-10})
    assert (tc.k_max, tc.a_max, tc.q_max, tc.s_tol) == (9, 5, 32, 1e-10)


def untiled_values(spec, a, b):
    """The whole-matrix evaluation the tiled engine replaced: one (a, b)
    product per patch, each pass of the kernel over all pairs at once."""
    s = 0.0
    for p in range(spec.n):
        s = s + eval_series(spec.f1, np.clip(a[:, p] @ b[:, p].T, -1.0, 1.0))
    return eval_series(spec.g, s)


_TILED_KERNELS = {
    "exp->exp": ([activation("exp"), activation("exp")], None),
    "geometric->identity": ([activation("geometric", ratio=0.5),
                             activation("identity")], None),
    "square->square, padded": ([activation("square")] * 2, None),
    "square->square, exact order": ([activation("square")] * 2,
                                    TruncationConfig(series_order=2, q_max=2)),
    "identity->square": ([activation("identity"), activation("square")],
                         None),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_TILED_KERNELS)), n=st.integers(1, 4),
       d=st.integers(2, 4), count=st.integers(1, 40),
       other=st.integers(1, 40), tile_rows=st.sampled_from([8, 16]),
       data=st.data())
def test_tiled_grams_bitwise_equal_untiled(name, n, d, count, other,
                                           tile_rows, data):
    """Every tile layout gives the whole-matrix values bit for bit.

    Coordinates are multiples of 1/8 of at most 3/4, so every inner product
    is exact whatever order a BLAS kernel sums in, and some leave [-1, 1]
    and are clipped; the kernel passes must then match exactly. Tiles of 8
    or 16 rows make counts 1, below one tile, on and just past a tile
    boundary and between boundaries all occur.
    """
    acts, trunc = _TILED_KERNELS[name]
    spec = build_kernel(acts, n, d, trunc)
    xs, ys = (data.draw(arrays(np.int64, (rows, n, d),
                               elements=st.integers(-6, 6))) / 8.0
              for rows in (count, other))
    with mock.patch.object(kernel, "TILE_BYTES", 8 * tile_rows * other):
        C = cross_gram(spec, xs, ys)
    with mock.patch.object(kernel, "TILE_BYTES", 8 * tile_rows * count):
        G = np.asarray(gram(spec, xs))
    want = untiled_values(spec, xs, xs)
    assert np.array_equal(C, untiled_values(spec, xs, ys))
    assert np.array_equal(G, 0.5 * (want + want.T))
    assert np.array_equal(G, G.T)
    assert np.array_equal(G, cross_gram(spec, xs, xs))


_EVAL_KERNELS = {**_TILED_KERNELS,
                 "erf_sigmoid->smooth_hinge": ([activation("erf_sigmoid"),
                                                activation("smooth_hinge")],
                                               None)}


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(_EVAL_KERNELS)), n=st.integers(1, 4),
       d=st.integers(2, 40),
       count=st.one_of(st.sampled_from([0, 1]), st.integers(2, 40)),
       scale=st.sampled_from([1.0, 1.5]), seed=st.integers(0, 2 ** 16))
@example(name="exp->exp", n=2, d=3, count=0, scale=1.0, seed=0)
def test_batched_eval_bitwise_equals_pair_calls(name, n, d, count, scale,
                                                seed):
    # sphere samples, whose inner products BLAS or einsum round; at scale
    # 1.5 some leave [-1, 1] and are clipped
    acts, trunc = _EVAL_KERNELS[name]
    spec = build_kernel(acts, n, d, trunc)
    xs = scale * sample_uniform_batch(count, n, d, (seed, 0))
    ys = sample_uniform_batch(count, n, d, (seed, 1))
    got = eval_kernel(spec, xs, ys)
    assert isinstance(got, np.ndarray) and got.shape == (count,)
    assert got.dtype == float
    pairs = [eval_kernel(spec, x, y) for x, y in zip(xs, ys)]
    assert got.tolist() == pairs
    # a pair, a batch of one, gives the float of the per-pair einsum
    assert pairs == [
        float(kernel._kernel_values(spec, np.einsum("nd,nd->n", x, y)))
        for x, y in zip(xs, ys)]


@pytest.mark.parametrize("xs, ys", [
    ((5, 2, 3), (4, 2, 3)),  # counts differ
    ((5, 2, 3), (5, 3, 3)),  # patches differ
    ((5, 3, 3), (5, 3, 3)),  # both off the kernel's n
    ((5, 2, 4), (5, 2, 4)),  # both off the kernel's d
    ((5, 2, 3), (2, 3)),  # a batch against one pair
    ((2, 3), (5, 2, 3)),
    ((1, 5, 2, 3), (1, 5, 2, 3)),  # 4-D
    ((6,), (6,)),  # 1-D
])
def test_batched_eval_shape_mismatch_rejected(xs, ys):
    spec = build_kernel([activation("exp"), activation("identity")], 2, 3)
    with pytest.raises(StructuralError):
        eval_kernel(spec, np.ones(xs), np.ones(ys))


def test_gram_exactly_symmetric_across_tiles():
    """Sphere samples whose products BLAS rounds: the lower triangle is a
    copy of the upper one, diagonal tiles included."""
    for acts, n, d in [(["exp", "exp"], 2, 3), (["identity", "square"], 3, 4),
                       (["erf_sigmoid", "smooth_hinge"], 1, 9)]:
        spec = build_kernel([activation(a) for a in acts], n, d)
        xs = sample_uniform_batch(61, n, d, (n, d))
        with mock.patch.object(kernel, "TILE_BYTES", 8 * 8 * 61):
            G = np.asarray(gram(spec, xs))
        assert np.array_equal(G, G.T)
        np.testing.assert_allclose(G, untiled_values(spec, xs, xs),
                                   rtol=1e-13, atol=1e-13 * spec.diag_value())


def test_gram_peak_memory_is_result_plus_scratch():
    """One ell = 2000 Gram allocates its ell x ell buffer and a few tiles,
    not the whole-matrix temporaries (122 MiB peak for the 30.5 MiB
    result)."""
    spec = build_kernel([activation("identity"), activation("square")], 2, 3)
    xs = sample_uniform_batch(2000, 2, 3, 0)
    tracemalloc.start()
    try:
        gram(spec, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2000 * 2000 * 8 + 2 * 2 ** 20


def test_concurrent_grams_match_serial():
    """Scratch tiles belong to one call: grams and cross grams running in
    more threads than cores, switching often, give the serial results."""
    spec = build_kernel([activation("exp"), activation("square")], 2, 4)
    batches = [sample_uniform_batch(150 + 17 * i, 2, 4, i) for i in range(6)]
    jobs = [(gram, (spec, b)) for b in batches]
    jobs += [(cross_gram, (spec, b, batches[0])) for b in batches]
    old = sys.getswitchinterval()
    with mock.patch.object(kernel, "TILE_BYTES", 8 * 8 * 150):
        want = [f(*args) for f, args in jobs]
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(f, *args) for f, args in jobs * 3]
                got = [fut.result(timeout=60) for fut in futures]
        finally:
            sys.setswitchinterval(old)
    for g, w in zip(got, want * 3):
        assert np.array_equal(g, w)


_PACKED_SIZES = (1, 7, 8, 9, 127, 128, 129, 255, 256, 257, 1000)


@pytest.mark.parametrize("acts", [("identity", "square"), ("exp", "exp"),
                                  ("erf_sigmoid", "smooth_hinge")])
def test_packed_gram_unpacks_bitwise_to_dense_fill(acts):
    """Below, on and just past tile and block boundaries (blocks of 112
    rows at ell = 257, two blocks at 129, eight at 1000), the unpacked Gram
    is bit for bit the Gram filled whole and mirrored."""
    spec = build_kernel([activation(a) for a in acts], 2, 3)
    for ell in _PACKED_SIZES:
        xs = sample_uniform_batch(ell, 2, 3, ell)
        got = np.asarray(gram(spec, xs))
        assert got.shape == (ell, ell)
        assert got.tobytes() == dense_gram(spec, xs).tobytes(), ell


def test_packed_gram_product_matches_dense_product():
    """The blockwise product agrees with the dense one for a vector, a
    block of columns and a strided column slice."""
    spec = build_kernel([activation("exp"), activation("square")], 2, 3)
    rng = np.random.default_rng(4)
    for ell in _PACKED_SIZES:
        xs = sample_uniform_batch(ell, 2, 3, ell)
        g, G = gram(spec, xs), dense_gram(spec, xs)
        X = np.asfortranarray(rng.standard_normal((ell, 9)))
        for x in (X, X[:, 0], X[:, 2:7]):
            want = G @ x
            got = g @ x
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_dense_copies_blocks_and_releases_packed_array():
    """dense() copies the blocks into a new array and drops the packed
    one; a second call (or np.asarray) is the same array, and products
    give the same bits before and after it."""
    spec = build_kernel([activation("exp"), activation("exp")], 2, 3)
    xs = sample_uniform_batch(1000, 2, 3, 9)
    g = gram(spec, xs)
    x = np.random.default_rng(1).standard_normal((1000, 3))
    before = g @ x
    packed = weakref.ref(g._blocks[0][2].base)
    assert all(B.base is packed() for _, _, B in g._blocks)
    G = g.dense()
    assert packed() is None  # nothing holds the packed array any more
    assert g.dense() is G and np.asarray(g) is G
    assert all(np.shares_memory(B, G) for _, _, B in g._blocks)
    assert G.tobytes() == dense_gram(spec, xs).tobytes()
    assert (g @ x).tobytes() == before.tobytes()


# layers with a small polynomial majorant: identity, square, or poly
# coefficients of degree <= 3
_FEATURE_LAYERS = st.one_of(
    st.sampled_from([activation("square"), activation("identity")]),
    st.builds(lambda body, top: activation("poly", coeffs=body + [top]),
              st.lists(st.sampled_from([0.0, 0.5, -1.0, 2.0]), max_size=3),
              st.sampled_from([0.5, -1.0, 2.0])))


@settings(max_examples=60, deadline=None)
@given(layers=st.lists(_FEATURE_LAYERS, min_size=1, max_size=2),
       n=st.integers(1, 4), d=st.integers(2, 9), seed=st.integers(0, 2 ** 16))
# the benchmark kernels: learning-curve (P = 210) and nystrom (P = 21)
@example(layers=[activation("square")] * 2, n=2, d=4, seed=0)
@example(layers=[activation("identity"), activation("square")], n=2, d=3,
         seed=0)
# three layers: g = (t^2)^2 has only a degree-4 term, P = C(3 + 3, 4)
@example(layers=[activation("square")] * 3, n=1, d=2, seed=1)
# a constant term in f1 and in g
@example(layers=[activation("poly", coeffs=[0.5, 0.0, 2.0]),
                 activation("poly", coeffs=[2.0, -1.0, 0.5])], n=3, d=2,
         seed=2)
def test_features_reproduce_the_kernel(layers, n, d, seed):
    """features(x) @ features(y).T is cross_gram(x, y) within 1e-13
    K(x, x) on unit patches (measured: at most 1e-15 of it over 1500
    random kernels of these layers), and the map has feature_count
    columns. Each entry is a sum of products of nonnegative-weight
    monomials, so its rounding error is bounded by a multiple of eps times
    sqrt(K(x, x) K(y, y)) = K(x, x)."""
    spec = build_kernel(layers, n, d)
    count = feature_count(spec)
    assume(count <= 20000)
    xs = sample_uniform_batch(5, n, d, (seed, 0))
    ys = sample_uniform_batch(3, n, d, (seed, 1))
    fx, fy = features(spec, xs), features(spec, ys)
    assert fx.shape == (5, count) and fy.shape == (3, count)
    err = np.abs(fx @ fy.T - cross_gram(spec, xs, ys)).max()
    assert err <= 1e-13 * spec.diag_value(), err / spec.diag_value()


def test_feature_count_is_the_monomial_count():
    # square -> square, n = 2, d = 4: P1 = 2 C(5, 2) = 20, P = C(21, 2)
    sq = build_kernel([activation("square")] * 2, 2, 4)
    assert feature_count(sq) == 210
    # identity -> square, n = 2, d = 3: P1 = 6, P = C(7, 2)
    assert feature_count(build_kernel(
        [activation("identity"), activation("square")], 2, 3)) == 21
    # f1 = 1 + t^2 (degrees 0 and 2), d = 3, n = 1: P1 = 1 + 6; g = t
    poly = build_kernel([activation("poly", coeffs=[1.0, 0.0, 1.0])], 1, 3)
    assert feature_count(poly) == 7
    for acts in ([activation("exp"), activation("square")],
                 [activation("square"), activation("exp")]):
        spec = build_kernel(acts, 2, 3)
        assert feature_count(spec) == math.inf
        with pytest.raises(ValueError):
            features(spec, sample_uniform_batch(2, 2, 3, 0))


def test_feature_gram_is_the_packed_product():
    """feature_gram packs phi^T phi in row blocks of GRAM_BLOCK: here 210
    columns, two blocks, each diagonal square exactly symmetric."""
    spec = build_kernel([activation("square")] * 2, 2, 4)
    phi = features(spec, sample_uniform_batch(500, 2, 4, 3))
    g = feature_gram(phi)
    assert g.shape == (210, 210) and len(g._blocks) == 2
    G = np.asarray(g)
    want = phi.T @ phi
    assert np.array_equal(G, G.T)
    assert np.abs(G - want).max() <= 1e-14 * np.abs(want).max()


def test_features_hold_the_result_and_two_lower_degrees():
    """The learning-curve kernel's 2000 x 210 features (3.2 MiB) are built
    degree by degree: the traced peak is the result, the 2000 x 20 inner
    layer and small index arrays, not a (count, P, m) tensor (6.4 MiB)."""
    spec = build_kernel([activation("square")] * 2, 2, 4)
    xs = sample_uniform_batch(2000, 2, 4, 4)
    tracemalloc.start()
    try:
        phi = features(spec, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= phi.nbytes + 2000 * 20 * 8 * 2 + 2 ** 18, peak / 2 ** 20
