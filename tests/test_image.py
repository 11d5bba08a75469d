import tracemalloc

import numpy as np
import pytest

from harmonica.errors import DegeneratePatchError, StructuralError
from harmonica.image import (NORM_TOL, Image, PatchConfig, extract_patches,
                             grid_locations, load_image, load_image_pgm,
                             load_image_text, sample_uniform,
                             sample_uniform_batch, unit_patches)

from helpers import run_fresh, save_image_text


def test_extract_all_ones():
    img = Image(np.ones((3, 3)))
    cfg = PatchConfig(r=2, locations=((1, 1),))
    got = extract_patches(img, cfg)
    np.testing.assert_allclose(got, [[0.5, 0.5, 0.5, 0.5]])


def test_extract_disjoint_grid(rng):
    img = Image(rng.standard_normal((4, 4)))
    cfg = PatchConfig(r=2, locations=tuple(grid_locations(4, 4, 2)))
    assert cfg.locations == ((1, 1), (1, 3), (3, 1), (3, 3))
    got = extract_patches(img, cfg)
    assert got.shape == (4, 4)
    np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0,
                               atol=1e-12)
    # row-major flattening of the (1,1) window
    win = img.pixels[:2, :2].reshape(-1)
    np.testing.assert_allclose(got[0], win / np.linalg.norm(win))


def test_extract_zero_window_rejected():
    px = np.ones((4, 4))
    px[2:4, 2:4] = 0.0
    cfg = PatchConfig(r=2, locations=((1, 1), (3, 3)))
    with pytest.raises(DegeneratePatchError):
        extract_patches(Image(px), cfg)


def test_extract_out_of_range_location():
    cfg = PatchConfig(r=2, locations=((4, 1),))
    with pytest.raises(StructuralError):
        extract_patches(Image(np.ones((4, 4))), cfg)


def test_overlapping_locations_allowed(rng):
    img = Image(rng.standard_normal((4, 4)))
    cfg = PatchConfig(r=2, locations=((1, 1), (1, 2), (2, 1)))
    assert extract_patches(img, cfg).shape == (3, 4)


def test_injectivity_on_unit_patch_images(rng):
    # assemble images from unit-norm disjoint patches: extraction inverts
    cfg = PatchConfig(r=2, locations=tuple(grid_locations(4, 4, 2)))
    seen = []
    for _ in range(10):
        tile = rng.standard_normal((4, 4, 1))
        px = np.zeros((4, 4))
        for (i, j) in cfg.locations:
            w = rng.standard_normal(4)
            px[i - 1:i + 1, j - 1:j + 1] = (w / np.linalg.norm(w)).reshape(2, 2)
        got = extract_patches(Image(px), cfg)
        for prev in seen:
            assert not np.allclose(prev, got)
        seen.append(got)
        back = np.zeros((4, 4))
        for idx, (i, j) in enumerate(cfg.locations):
            back[i - 1:i + 1, j - 1:j + 1] = got[idx].reshape(2, 2)
        np.testing.assert_allclose(back, px, atol=1e-12)


def test_sample_uniform_basics():
    x = sample_uniform(1, 2, seed=5)
    assert abs(np.linalg.norm(x[0]) - 1.0) < 1e-12
    assert np.array_equal(sample_uniform(3, 4, 9), sample_uniform(3, 4, 9))


def test_sample_uniform_mean_symmetry():
    pts = sample_uniform_batch(10_000, 1, 3, 7).reshape(-1, 3)
    assert np.all(np.abs(pts.mean(axis=0)) <= 0.05)


def test_unit_patches_norm_invariant():
    with pytest.raises(ValueError):
        unit_patches(np.array([[0.5, 0.5]]))
    # one off-sphere patch anywhere in a batch refuses the batch
    batch = np.array(sample_uniform_batch(4, 2, 3, 1))
    batch[2, 1] *= 1.0 + 10 * NORM_TOL
    with pytest.raises(ValueError):
        unit_patches(batch)
    with pytest.raises(StructuralError):
        unit_patches(np.array([[1.0]]))
    got = unit_patches(sample_uniform_batch(4, 2, 3, 1))
    assert not got.flags.writeable


def test_sample_uniform_batch_matches_per_image_rows():
    # the batch is the per-image construction it replaced, bit for bit:
    # one (count, n, d) normal draw, each (n, d) slice row-normalized
    count, n, d, seed = 50, 3, 4, (7, 2)
    batch = sample_uniform_batch(count, n, d, seed)
    g = np.random.default_rng(seed).standard_normal((count, n, d))
    for i in range(count):
        rows = g[i] / np.linalg.norm(g[i], axis=-1, keepdims=True)
        assert np.array_equal(batch[i], rows)
    assert batch.shape == (count, n, d) and not batch.flags.writeable
    assert np.array_equal(sample_uniform(n, d, seed),
                          sample_uniform_batch(1, n, d, seed)[0])


def test_sample_uniform_batch_holds_two_copies():
    # the draws are normalized in place and every norm is taken a chunk of
    # rows at a time, so the call holds the draws and unit_patches' copy
    # (about 5.5 batches when whole-batch temporaries were made); the
    # chunked batch must still be bitwise the whole-batch construction
    count, n, d, seed = 200_000, 2, 2, 0
    tracemalloc.start()
    try:
        batch = sample_uniform_batch(count, n, d, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * batch.nbytes + 2 ** 22, peak / batch.nbytes
    g = np.random.default_rng(seed).standard_normal((count, n, d))
    assert np.array_equal(batch, g / np.linalg.norm(g, axis=-1, keepdims=True))


# the widely published HMAC-SHA256 of this message under the key "key"
_HMAC_CHECK = ("f7bc83f430538424b13298e6aa6fb143"
               "ef4d59a14946175997479dbc2d1a3cd8")
_HMAC_LINE = ("hmac.new(b'key', b'The quick brown fox jumps over the lazy "
              "dog', 'sha256').hexdigest()")


def test_default_rng_leaves_the_process_clean():
    # the first call imports numpy.random with _hashlib blocked, then
    # removes the block and the hashlib, hmac and secrets modules it made,
    # so later imports get the OpenSSL-backed ones
    out = run_fresh("\n".join([
        "import importlib.util, sys",
        "from harmonica import image",
        "assert 'numpy.random' not in sys.modules",
        "image.default_rng(1)",
        "assert not [m for m, v in sys.modules.items() if v is None]",
        "assert not {'_hashlib', 'hashlib', 'hmac', 'secrets'} "
        "& set(sys.modules)",
        "import hashlib, hmac, secrets",
        "if importlib.util.find_spec('_hashlib'):",
        "    import _hashlib",
        "    assert hashlib.sha256 is _hashlib.openssl_sha256",
        "    assert hmac.compare_digest is _hashlib.compare_digest",
        f"print({_HMAC_LINE})",
        "assert len(secrets.token_hex()) == 64",
        "import numpy as np",
        "a, b = (np.random.default_rng().standard_normal(4) for _ in 'ab')",
        "assert not np.array_equal(a, b)",  # seeded from the system
    ]))
    assert out.split() == [_HMAC_CHECK]


@pytest.mark.parametrize("preload", ["_hashlib", "numpy.random"])
def test_default_rng_changes_nothing_once_loaded(preload):
    # with OpenSSL or numpy.random already imported, the call leaves
    # sys.modules as np.random.default_rng does
    def modules(call):
        return run_fresh("\n".join([
            "import importlib.util, sys",
            f"if importlib.util.find_spec({preload!r}):",
            f"    import {preload}",
            "import numpy as np",
            "from harmonica import image",
            "before = dict(sys.modules)",
            f"{call}(1)",
            "assert all(sys.modules[m] is v for m, v in before.items())",
            "print(sorted(sys.modules))",
        ]))

    assert modules("image.default_rng") == modules("np.random.default_rng")


SEEDS = [0, 1, 7, 2 ** 40, (0, 0), (1, 99), (3, 1600, 1)]


def test_default_rng_draws_what_numpy_draws():
    # the first call, which imports numpy.random, and later ones give the
    # generator np.random.default_rng gives, bit for bit
    out = run_fresh("\n".join([
        "from harmonica import image",
        f"for s in {SEEDS!r}:",
        "    print(image.default_rng(s).standard_normal(7).tobytes().hex())",
    ]))
    want = [np.random.default_rng(s).standard_normal(7).tobytes().hex()
            for s in SEEDS]
    assert out.split() == want


def test_default_rng_first_call_from_many_threads():
    # more threads than cores race to the first call: one imports
    # numpy.random, the others wait, and every one gets the seeded draws
    out = run_fresh("\n".join([
        "import sys, threading",
        "from concurrent.futures import ThreadPoolExecutor",
        "from harmonica import image",
        "sys.setswitchinterval(1e-6)",
        "start = threading.Barrier(8)",
        "def draw(_):",
        "    start.wait(timeout=60)",
        "    return image.default_rng(5).standard_normal(3).tobytes()",
        "with ThreadPoolExecutor(8) as pool:",
        "    draws = list(pool.map(draw, range(8), timeout=60))",
        "assert len(set(draws)) == 1 and len(draws) == 8",
        "assert not [m for m, v in sys.modules.items() if v is None]",
        "print('_hashlib' in sys.modules)",
    ]))
    assert out.split() == ["False"]


def test_text_image_roundtrip(tmp_path, rng):
    img = Image(rng.standard_normal((5, 3)))
    p = tmp_path / "img.txt"
    save_image_text(img, p)
    back = load_image_text(p)
    np.testing.assert_allclose(back.pixels, img.pixels)
    assert load_image(p).h == 5


def test_pgm_p2_and_p5(tmp_path):
    p2 = tmp_path / "a.pgm"
    p2.write_text("P2\n# comment\n3 2\n255\n0 10 20\n30 40 255\n")
    img = load_image_pgm(p2)
    assert img.h == 2 and img.w == 3
    assert img.pixels[1, 2] == 255.0

    p5 = tmp_path / "b.pgm"
    payload = bytes([0, 10, 20, 30, 40, 255])
    p5.write_bytes(b"P5\n3 2\n255\n" + payload)
    img5 = load_image_pgm(p5)
    np.testing.assert_allclose(img5.pixels, img.pixels)

    # the P5 payload starts exactly one whitespace byte past maxval: a
    # comment between header tokens is skipped, a first pixel byte that
    # reads as whitespace (0x20, 0x0a) or a comment mark (0x23) is a
    # pixel, and maxval > 255 means two big-endian bytes per pixel
    wide = np.array([[0x0A20, 0x0020, 65535], [256, 1, 40000]])
    cases = [(b"P5 # a comment\n3 # another\n2\n255\n",
              [0x20, 10, 20, 30, 40, 255]),
             (b"P5\t3\r\n2 255 ", [0x0A, 0x20, 0x0A, 1, 2, 3]),
             (b"P5\n3 2\n# last\n255\n", [0x23, 0x20, 0x0A, 1, 2, 3]),
             (b"P5\n# 16-bit\n3 2\n65535\n", wide)]
    for header, pixels in cases:
        pixels = np.reshape(pixels, (2, 3))
        dt = ">u2" if b"65535" in header else ">u1"
        p5.write_bytes(header + pixels.astype(dt).tobytes())
        np.testing.assert_array_equal(load_image_pgm(p5).pixels, pixels)


def test_patch_config_validation():
    with pytest.raises(ValueError):
        PatchConfig(r=1, locations=((1, 1),))
    with pytest.raises(ValueError):
        PatchConfig(r=2, locations=())
