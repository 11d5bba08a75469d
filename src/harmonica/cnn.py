"""Reference forward pass of the convolutional network.

Layer k maps n_k patch vectors of length d_k * p_k through convolution with
p_{k+1} filters, elementwise nonlinearity, pooling across patch positions,
and extraction of n_{k+1} windows of d_{k+1} consecutive positions. The
prediction layer is a plain inner product with the flattened final state.
Index overruns q+l in hidden-layer extraction wrap circularly by default;
"valid" restricts to windows that fit, shrinking n_{k+1}. Used to generate
target functions; there is no training here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .activations import evaluate
from .errors import StructuralError
from .image import default_rng

BOUNDARY_MODES = ("circular", "valid")


def next_patch_count(n_k: int, d_next: int, boundary: str) -> int:
    if boundary == "circular":
        return n_k
    if boundary == "valid":
        m = n_k - d_next + 1
        if m < 1:
            raise StructuralError(
                f"valid-mode extraction of width {d_next} impossible on {n_k} positions")
        return m
    raise ValueError(f"boundary must be one of {BOUNDARY_MODES}")


@dataclass(frozen=True)
class NetworkParams:
    """Weights and size chain of an N-layer network.

    d_sizes[k], p_sizes[k], n_sizes[k] are the patch length, filter count and
    patch count feeding layer k (0-based k < N, with p_sizes[0] = 1). weights[k]
    has shape (p_{k+1}, d_k * p_k); w_out has length n_{N-1} * p_N; each
    pooling[k] is an n_k x n_k matrix of pooling factors.
    """

    d_sizes: tuple
    p_sizes: tuple  # length N+1, p_sizes[0] = 1
    n_sizes: tuple
    weights: tuple  # N matrices
    poolings: tuple  # N matrices
    w_out: np.ndarray
    boundary: str = field(default="circular")

    def __post_init__(self):
        N = len(self.weights)
        if N < 1:
            raise StructuralError("need at least one layer")
        if not (len(self.d_sizes) == len(self.n_sizes) == N
                and len(self.p_sizes) == N + 1):
            raise StructuralError("size chains inconsistent with layer count")
        if self.boundary not in BOUNDARY_MODES:
            raise ValueError(f"boundary must be one of {BOUNDARY_MODES}")
        ws = []
        for k in range(N):
            w = np.asarray(self.weights[k], dtype=float)
            want = (self.p_sizes[k + 1], self.d_sizes[k] * self.p_sizes[k])
            if w.shape != want:
                raise StructuralError(
                    f"layer {k} weights {w.shape} != expected {want}")
            ws.append(w)
        ps = []
        for k in range(N):
            g = np.asarray(self.poolings[k], dtype=float)
            if g.shape != (self.n_sizes[k], self.n_sizes[k]):
                raise StructuralError(f"layer {k} pooling shape {g.shape} "
                                      f"!= ({self.n_sizes[k]},)*2")
            ps.append(g)
        for k in range(N - 1):
            expect = next_patch_count(self.n_sizes[k], self.d_sizes[k + 1],
                                      self.boundary)
            if self.n_sizes[k + 1] != expect:
                raise StructuralError(
                    f"n_sizes[{k + 1}]={self.n_sizes[k + 1]} inconsistent with "
                    f"{self.boundary} extraction ({expect})")
        out = np.asarray(self.w_out, dtype=float)
        if out.shape != (self.n_sizes[-1] * self.p_sizes[-1],):
            raise StructuralError(
                f"prediction weights length {out.shape} != "
                f"{self.n_sizes[-1] * self.p_sizes[-1]}")
        arrays = [*ws, *ps, out]
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ValueError("network parameters must be finite")
        for a in arrays:
            a.flags.writeable = False
        object.__setattr__(self, "weights", tuple(ws))
        object.__setattr__(self, "poolings", tuple(ps))
        object.__setattr__(self, "w_out", out)

    @property
    def num_layers(self) -> int:
        return len(self.weights)


def _windows(n_k: int, width: int, boundary: str) -> np.ndarray:
    """Row indices of the extraction windows: entry [q, l] is the position
    read as row l of output patch q (q + l, wrapped when circular)."""
    count = next_patch_count(n_k, width, boundary)
    idx = np.arange(count)[:, None] + np.arange(width)
    return idx % n_k if boundary == "circular" else idx


def forward(params: NetworkParams, activations: list, xs) -> np.ndarray:
    """Network outputs <X^N, W^N> for a (count, n, d) batch of patched
    images; shape (count,).

    Each layer is one matrix product over the whole batch, then the
    nonlinearity, pooling across patch positions, and the extraction of
    the next layer's windows (rows of each window flattened row-major).
    """
    N = params.num_layers
    if len(activations) != N:
        raise StructuralError(f"{len(activations)} activations for {N} layers")
    state = np.asarray(xs, dtype=float)  # (count, n_k, d_k * p_k)
    front = (params.n_sizes[0], params.d_sizes[0])
    if state.ndim != 3 or state.shape[1:] != front:
        raise StructuralError(
            f"input batch {state.shape} does not match network front "
            f"(count,{front[0]},{front[1]})")
    count = state.shape[0]
    for k in range(N):
        n_k, p_next = params.n_sizes[k], params.p_sizes[k + 1]
        w = params.weights[k]
        pre = (state.reshape(count * n_k, w.shape[1]) @ w.T).reshape(
            count, n_k, p_next)
        post = np.asarray(evaluate(activations[k], pre), dtype=float)
        pooled = np.einsum("ij,cjp->cip", params.poolings[k], post)
        if k < N - 1:
            idx = _windows(n_k, params.d_sizes[k + 1], params.boundary)
            state = pooled[:, idx].reshape(count, idx.shape[0],
                                           idx.shape[1] * p_next)
        else:
            state = pooled.reshape(count, n_k * p_next)  # one final patch
    return state @ params.w_out


def gaussian_pooling(n: int, width: float = 1.0) -> np.ndarray:
    """Row-normalized local averaging with weights decaying in |i - j|."""
    idx = np.arange(n)
    g = np.exp(-((idx[:, None] - idx[None, :]) ** 2) / (2.0 * width ** 2))
    return g / g.sum(axis=1, keepdims=True)


# each pooling name with the n x n matrix it builds
_POOLING_MATRICES = {"identity": np.eye, "gaussian": gaussian_pooling}
POOLINGS = tuple(_POOLING_MATRICES)


def random_params(n: int, d: int, filters, patch_sizes=(), seed=0,
                  boundary: str = "circular",
                  pooling: str = "identity") -> NetworkParams:
    """Gaussian weights for the size chain implied by filters/patch_sizes.

    filters lists p_2..p_{N+1} (so N = len(filters)); patch_sizes lists the
    hidden extraction widths d_2..d_N (length N-1); pooling is one of
    POOLINGS. Deterministic per seed.
    """
    if pooling not in POOLINGS:
        raise ValueError(f"pooling must be one of {POOLINGS}")
    filters = tuple(int(p) for p in filters)
    patch_sizes = tuple(int(v) for v in patch_sizes)
    N = len(filters)
    if N < 1:
        raise StructuralError("need at least one filter count")
    if len(patch_sizes) != N - 1:
        raise StructuralError(f"need {N - 1} hidden patch sizes, got {len(patch_sizes)}")
    d_sizes = [d, *patch_sizes]
    p_sizes = [1, *filters]
    n_sizes = [n]
    for k in range(N - 1):
        n_sizes.append(next_patch_count(n_sizes[k], d_sizes[k + 1], boundary))
    rng = default_rng(seed)
    weights = [rng.standard_normal((p_sizes[k + 1], d_sizes[k] * p_sizes[k]))
               / math.sqrt(d_sizes[k] * p_sizes[k])
               for k in range(N)]
    w_out = rng.standard_normal(n_sizes[-1] * p_sizes[-1])
    poolings = [_POOLING_MATRICES[pooling](n_sizes[k]) for k in range(N)]
    return NetworkParams(tuple(d_sizes), tuple(p_sizes), tuple(n_sizes),
                         tuple(weights), tuple(poolings), w_out,
                         boundary=boundary)

