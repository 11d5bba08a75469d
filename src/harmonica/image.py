"""Image ingestion, patch extraction, and normalization onto (S^{d-1})^n.

Patches are r x r windows flattened row-major and scaled to unit Euclidean
norm; a patched image is the (n, d) array of those unit vectors, and a
batch of them one (count, n, d) array. Locations are
1-based (i, j) with 1 <= i <= h-r+1, 1 <= j <= w-r+1, window rows
i..i+r-1. File formats: a plain-text matrix ("h w" header line, then h rows
of w reals) and single-channel portable graymaps (P2/P5).
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePatchError, StructuralError

NORM_TOL = 1e-12

# held while default_rng checks for numpy.random and may import it: the
# learning curve samples from several threads
_RANDOM_IMPORT = threading.Lock()


@dataclass(frozen=True)
class Image:
    pixels: np.ndarray  # (h, w), finite reals

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=float)
        if px.ndim != 2 or px.size == 0:
            raise StructuralError("image must be a nonempty h x w matrix")
        if not np.all(np.isfinite(px)):
            raise ValueError("image has non-finite pixels")
        px = px.copy()
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @property
    def h(self) -> int:
        return self.pixels.shape[0]

    @property
    def w(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class PatchConfig:
    """Patch side r (so d = r^2) plus the list of extraction locations."""

    r: int
    locations: tuple

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("patch side r must be >= 2 (d = r^2 >= 2)")
        locs = tuple((int(i), int(j)) for i, j in self.locations)
        if not locs:
            raise ValueError("need at least one extraction location")
        object.__setattr__(self, "locations", locs)

    def validate_for(self, img: Image) -> None:
        for (i, j) in self.locations:
            if not (1 <= i <= img.h - self.r + 1 and 1 <= j <= img.w - self.r + 1):
                raise StructuralError(
                    f"location ({i},{j}) outside valid grid for "
                    f"{img.h}x{img.w} image with r={self.r}")


def grid_locations(h: int, w: int, r: int, stride: int | None = None) -> list:
    """Stride-based grid of 1-based window origins; default stride r gives
    disjoint patches."""
    s = r if stride is None else int(stride)
    if s < 1:
        raise ValueError("stride must be >= 1")
    return [(i, j) for i in range(1, h - r + 2, s)
            for j in range(1, w - r + 2, s)]


def unit_patches(a) -> np.ndarray:
    """Read-only float copy of a (..., n, d) array of unit patch vectors.

    Each trailing row is one patch on S^{d-1}; a row whose norm deviates
    from 1 by more than NORM_TOL is refused. A (count, n, d) batch is
    checked a chunk of rows at a time (`_row_chunks`), so the check makes
    no temporary of the batch's size.
    """
    p = np.array(a, dtype=float, order="C")
    if p.ndim < 2 or p.shape[-2] < 1 or p.shape[-1] < 2:
        raise StructuralError("patches must form (..., n, d>=2) arrays")
    for rows in _row_chunks(p):
        if np.any(np.abs(np.linalg.norm(rows, axis=-1) - 1.0) > NORM_TOL):
            raise ValueError("patch norms deviate from 1 beyond tolerance")
    p.flags.writeable = False
    return p


def _row_chunks(p: np.ndarray):
    """Views of the trailing rows of the C-ordered p, about 1 MiB of them
    at a time. A row's norm is reduced over that row alone, so a chunk's
    norms are bitwise those of the whole array."""
    rows = p.reshape(-1, p.shape[-1])
    step = max(1, 2 ** 20 // (8 * rows.shape[1]))
    return (rows[i:i + step] for i in range(0, len(rows), step))


@np.errstate(over="ignore")  # an overflowing sum of squares is rescaled
def extract_patches(img: Image, cfg: PatchConfig) -> np.ndarray:
    """Flatten each configured r x r window row-major and normalize it.

    Returns the (n, d) unit patches of the image. A zero-norm window is a
    degenerate-patch error: such images fall outside the normalized image
    space. A window whose sum of squares leaves the normal double range
    (pixels past about 1e154 or below about 1e-154) is first divided by its
    largest magnitude, so it normalizes like any other.
    """
    cfg.validate_for(img)
    r = cfg.r
    rows = []
    for (i, j) in cfg.locations:
        win = img.pixels[i - 1:i - 1 + r, j - 1:j - 1 + r].reshape(-1)
        sq = float(np.dot(win, win))
        if not sys.float_info.min <= sq < math.inf and win.any():
            win = win / np.max(np.abs(win))
            sq = float(np.dot(win, win))
        if sq == 0.0:
            raise DegeneratePatchError(f"zero-norm window at ({i},{j})")
        rows.append(win / math.sqrt(sq))
    return unit_patches(rows)


def default_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, with numpy.random imported without
    OpenSSL.

    numpy.random imports `secrets`, and through it `hmac` and `hashlib`,
    which load OpenSSL's libcrypto (`_hashlib`, about 3.5 MiB resident)
    for `secrets.randbits`, which numpy calls only for an unseeded
    generator. So on the first call, while neither numpy.random nor
    `_hashlib` is loaded, numpy.random is imported with
    ``sys.modules["_hashlib"]`` set to None, which makes that import raise
    ImportError and `hmac` and `hashlib` fall back to the interpreter's
    built-in digests. The sentinel is then removed, and so are `hashlib`,
    `hmac` and `secrets` if that import added them, so a later
    ``import hashlib`` gets the OpenSSL-backed module. The generator is
    the one ``np.random.default_rng(seed)`` gives, draw for draw; an
    unseeded one still seeds itself from the operating system.
    """
    with _RANDOM_IMPORT:
        if "numpy.random" not in sys.modules and "_hashlib" not in sys.modules:
            added = [m for m in ("hashlib", "hmac", "secrets")
                     if m not in sys.modules]
            sys.modules["_hashlib"] = None
            try:
                import numpy.random
            finally:
                del sys.modules["_hashlib"]
                for m in added:
                    sys.modules.pop(m, None)
    return np.random.default_rng(seed)


def sample_uniform(n: int, d: int, seed) -> np.ndarray:
    """n independent uniform points on S^{d-1}, an (n, d) array,
    deterministic per seed (row 0 of the batch of one)."""
    return sample_uniform_batch(1, n, d, seed)[0]


def sample_uniform_batch(count: int, n: int, d: int, seed) -> np.ndarray:
    """A reproducible (count, n, d) batch of uniform product-sphere points.

    The normal draws are normalized in place, a chunk of rows at a time,
    so the call holds the draws and the read-only copy `unit_patches`
    returns, and no other array of the batch's size.
    """
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    g = default_rng(seed).standard_normal((count, n, d))
    for rows in _row_chunks(g):
        norms = np.linalg.norm(rows, axis=-1, keepdims=True)
        # an exact zero draw is astronomically unlikely; guard anyway
        norms[norms == 0.0] = 1.0
        rows /= norms
    return unit_patches(g)


def load_image_text(path) -> Image:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise StructuralError(f"{path}: first line must be 'h w'")
        h, w = int(header[0]), int(header[1])
        data = np.loadtxt(fh, dtype=float, ndmin=2)
    if data.shape != (h, w):
        raise StructuralError(
            f"{path}: expected {h}x{w} values, found {data.shape}")
    return Image(data)


def load_image_pgm(path) -> Image:
    """P2 (ascii) or P5 (binary) single-channel portable graymap."""
    with open(path, "rb") as fh:
        raw = fh.read()
    tokens = _pgm_tokens(raw)

    def take() -> tuple:
        tok = next(tokens, None)
        if tok is None:
            raise StructuralError(f"{path}: graymap ends early")
        return tok

    magic, _ = take()
    if magic not in (b"P2", b"P5"):
        raise StructuralError(f"{path}: not a P2/P5 graymap")
    w = int(take()[0])
    h = int(take()[0])
    token, end = take()
    maxval = int(token)
    if maxval <= 0:
        raise StructuralError(f"{path}: bad maxval {maxval}")
    if magic == b"P2":
        vals = [int(take()[0]) for _ in range(h * w)]
        data = np.asarray(vals, dtype=float).reshape(h, w)
    else:
        # the binary payload starts after exactly one whitespace byte past
        # maxval, whatever the payload's own first bytes are
        dt = np.dtype(">u1") if maxval < 256 else np.dtype(">u2")
        flat = np.frombuffer(raw, dtype=dt, count=h * w, offset=end + 1)
        data = flat.astype(float).reshape(h, w)
    return Image(data)


def load_image(path) -> Image:
    p = str(path)
    if p.endswith(".pgm"):
        return load_image_pgm(p)
    return load_image_text(p)


def _pgm_tokens(raw: bytes):
    """Yield (token, end) for each whitespace-separated header token, end
    being the index just past it; a '#' starts a comment to end of line."""
    i = 0
    n = len(raw)
    while i < n:
        c = raw[i:i + 1]
        if c in b" \t\r\n":
            i += 1
        elif c == b"#":
            while i < n and raw[i:i + 1] != b"\n":
                i += 1
        else:
            j = i
            while j < n and raw[j:j + 1] not in b" \t\r\n":
                j += 1
            yield raw[i:j], j
            i = j
