import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import harmonica
from harmonica import cli
from harmonica.cli import EXIT_CONFIG, EXIT_OK, EXIT_TOLERANCE, main

KERNEL_EI = {"layers": [{"activation": "exp"}, {"activation": "identity"}],
             "n": 1, "d": 3}


def run(tmp_path, command, cfg, name="out.csv", extra=()):
    cfg_path = tmp_path / f"{command}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / name
    rc = main([command, "--config", str(cfg_path), "--out", str(out),
               "--seed", "3", *extra])
    return rc, out


def read_rows(path):
    rows = []
    header = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        else:
            rows.append(line.split(","))
    return header, rows


def test_spectrum_command(tmp_path):
    rc, out = run(tmp_path, "spectrum", {"kernel": KERNEL_EI, "k_max": 10})
    assert rc == EXIT_OK
    header, rows = read_rows(out)
    assert any("config_sha256" in h for h in header)
    mus = [float(r[1]) for r in rows]
    assert rows[0][0] == "1" and mus == sorted(mus, reverse=True)
    summary = json.loads((tmp_path / "out.json").read_text())
    assert summary["kappa"] == pytest.approx(2.0, rel=1e-10)
    assert summary["max_interaction_order"] == 1  # D = 1 kernel
    assert summary["entries"] == sum(int(r[2]) for r in rows)


def test_spectrum_determinism(tmp_path):
    cfg = {"kernel": KERNEL_EI, "k_max": 8}
    _, out1 = run(tmp_path, "spectrum", cfg, name="a.csv")
    _, out2 = run(tmp_path, "spectrum", cfg, name="b.csv")
    assert out1.read_bytes() == out2.read_bytes()


def test_reconstruct_command_and_tolerance_exit(tmp_path):
    cfg = {"kernel": KERNEL_EI, "k_max": 20, "pairs": 10}
    rc, out = run(tmp_path, "reconstruct", cfg)
    assert rc == EXIT_OK
    _, rows = read_rows(out)
    assert len(rows) == 10
    errs = [float(r[3]) for r in rows]
    assert max(errs) < 1e-6
    # absurd threshold forces the tolerance exit code
    rc2, _ = run(tmp_path, "reconstruct", cfg, name="f.csv",
                 extra=("--tolerance", "1e-18", "--kmax", "2"))
    assert rc2 == EXIT_TOLERANCE


def test_reconstruct_zero_kernel_measures_absolute_error(tmp_path):
    # K == 0 identically, so K(x, x) = 0 cannot scale the error
    cfg = {"kernel": {"layers": [{"activation": "poly", "coeffs": [0, 0, 0]},
                                 {"activation": "square"}], "n": 2, "d": 3},
           "k_max": 3, "pairs": 2}
    rc, out = run(tmp_path, "reconstruct", cfg)
    assert rc == EXIT_OK
    _, rows = read_rows(out)
    assert [float(v) for r in rows for v in r[1:]] == [0.0] * 6


@pytest.mark.parametrize("layers", [
    # f1^2 in the lambda table, the outer composition's tail, lambda itself
    [{"activation": "custom", "coeffs": [1e200, 1e200]},
     {"activation": "square"}],
    [{"activation": "exp"}, {"activation": "custom", "coeffs": [1e200, 1e200]},
     {"activation": "geometric", "ratio": 0.5}],
    [{"activation": "custom", "coeffs": [1.7e308, 1.7e308]}],
], ids=["product", "composition-tail", "lambda"])
def test_reconstruct_overflow_is_numerical_failure(tmp_path, layers):
    cfg = {"kernel": {"layers": layers, "n": 1, "d": 2}, "k_max": 1,
           "pairs": 1}
    rc, out = run(tmp_path, "reconstruct", cfg)
    assert rc == EXIT_TOLERANCE
    assert not out.exists()


# every finite float is schema-valid: huge coefficients overflow the series
# arithmetic, which must end in exit 3, not a traceback. main runs each
# command under np.errstate, so the exit-code fuzzers also fail on a numpy
# RuntimeWarning, which would reach stderr
_COEFFS = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                   min_size=0, max_size=6)
_LAYER = st.one_of(
    st.builds(lambda kind: {"activation": kind},
              st.sampled_from(["exp", "square", "identity", "erf_sigmoid",
                               "smooth_hinge", "geometric", "poly", "custom"])),
    st.builds(lambda kind, c: {"activation": kind, "coeffs": c},
              st.sampled_from(["poly", "custom"]), _COEFFS),
    st.builds(lambda r: {"activation": "geometric", "ratio": r},
              st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                        exclude_max=True)),
)
_TRUNCATION = st.fixed_dictionaries({}, optional={
    "K_max": st.integers(0, 8), "A_max": st.integers(0, 8),
    "Q_max": st.integers(1, 24), "order": st.integers(1, 48),
    "L_max": st.integers(1, 24),
    "s_tol": st.floats(min_value=0.0, exclude_min=True,
                       allow_infinity=False)})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(layers=st.lists(_LAYER, min_size=1, max_size=3),
       n=st.integers(1, 3), d=st.integers(2, 4),
       truncation=st.one_of(st.none(), _TRUNCATION),
       k_max=st.integers(1, 6), pairs=st.integers(1, 3))
def test_reconstruct_exit_codes_fuzz(layers, n, d, truncation, k_max, pairs):
    kernel = {"layers": layers, "n": n, "d": d}
    if truncation is not None:
        kernel["truncation"] = truncation
    cfg = {"kernel": kernel, "k_max": k_max, "pairs": pairs}
    with tempfile.TemporaryDirectory() as tmp:
        rc, _ = run(Path(tmp), "reconstruct", cfg)
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_TOLERANCE)


_KERNEL = st.fixed_dictionaries(
    {"layers": st.lists(_LAYER, min_size=1, max_size=3),
     "n": st.integers(1, 3), "d": st.integers(2, 4)},
    optional={"truncation": _TRUNCATION})
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# one activation and filter count per layer, one patch size per hidden layer
_NETWORK = st.integers(1, 3).flatmap(lambda layers: st.fixed_dictionaries(
    {"filters": st.lists(st.integers(1, 3), min_size=layers,
                         max_size=layers),
     "activations": st.lists(_LAYER, min_size=layers, max_size=layers),
     "patch_sizes": st.lists(st.integers(1, 4), min_size=layers - 1,
                             max_size=layers - 1)},
    optional={"boundary": st.sampled_from(["circular", "valid"]),
              "pooling": st.sampled_from(["identity", "gaussian"]),
              "weight_scale": _FINITE}))
_TARGET = st.one_of(
    st.fixed_dictionaries({"type": st.just("zero")}),
    st.fixed_dictionaries({"type": st.just("network")},
                          optional={"network": _NETWORK}),
    st.fixed_dictionaries(
        {"type": st.just("source")},
        optional={"beta": st.floats(min_value=0.0, max_value=4.0,
                                    exclude_min=True),
                  "profiles": st.lists(st.fixed_dictionaries(
                      {"degrees": st.lists(st.integers(0, 4), max_size=3)},
                      optional={"coeff": _FINITE}), max_size=3)}))


def _exit_code(command, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        rc, _ = run(Path(tmp), command, cfg)
    return rc


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(kernel=_KERNEL, k_max=st.integers(1, 8),
       fit_rank_range=st.one_of(st.none(), st.lists(st.integers(1, 60),
                                                    min_size=2, max_size=2)))
# a rank window with no eigenvalue in it
@example(kernel={"layers": [{"activation": "exp"}, {"activation": "exp"}],
                 "n": 3, "d": 2}, k_max=2, fit_rank_range=[1, 1])
# eigenvalue ratios below 1/DBL_MAX: 1/lambda overflowed in counting_slope
@example(kernel={"layers": [{"activation": "exp"},
                            {"activation": "geometric",
                             "ratio": 3.2906960682567283e-105}],
                 "n": 3, "d": 2}, k_max=2, fit_rank_range=None)
# eigenvalue ratios that underflow to 0: log(-log(0)) = inf made the
# counting regression's SVD fail (exit 1)
@example(kernel={"layers": [{"activation": "poly",
                             "coeffs": [0.0, 2.225073858507203e-309,
                                        2128889018566130.0]},
                            {"activation": "exp"}],
                 "n": 3, "d": 2}, k_max=3, fit_rank_range=None)
def test_spectrum_exit_codes_fuzz(kernel, k_max, fit_rank_range):
    cfg = {"kernel": kernel, "k_max": k_max}
    if fit_rank_range is not None:
        cfg["fit_rank_range"] = fit_rank_range
    assert _exit_code("spectrum", cfg) in (EXIT_OK, EXIT_CONFIG,
                                           EXIT_TOLERANCE)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(kernel=_KERNEL,
       schedule=st.fixed_dictionaries(
           {"beta": st.floats(min_value=0.0, max_value=2.0, exclude_min=True)},
           optional={"mu_exp": _FINITE}),
       sizes=st.lists(st.integers(3, 40), min_size=1, max_size=3),
       test_size=st.integers(1, 40), target=_TARGET)
# a subnormal beta makes the beta < 1 schedule power inf, not an exception
@example(kernel={"layers": [{"activation": "exp"}], "n": 1, "d": 2},
         schedule={"beta": 5e-324}, sizes=[3], test_size=2,
         target={"type": "source"})
def test_learning_curve_exit_codes_fuzz(kernel, schedule, sizes, test_size,
                                        target):
    cfg = {"kernel": kernel, "schedule": schedule, "sizes": sizes,
           "test_size": test_size, "target": target}
    assert _exit_code("learning-curve", cfg) in (EXIT_OK, EXIT_CONFIG,
                                                 EXIT_TOLERANCE)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(kernel=_KERNEL, ell=st.integers(1, 40), top_k=st.integers(1, 10),
       k_max=st.integers(1, 6))
def test_gram_eig_exit_codes_fuzz(kernel, ell, top_k, k_max):
    cfg = {"kernel": kernel, "ell": ell, "top_k": top_k, "k_max": k_max}
    assert _exit_code("gram-eig", cfg) in (EXIT_OK, EXIT_CONFIG,
                                           EXIT_TOLERANCE)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(network=_NETWORK, n=st.integers(1, 3), d=st.integers(2, 4),
       count=st.integers(1, 5))
def test_cnn_label_exit_codes_fuzz(network, n, d, count):
    cfg = {"network": network, "n": n, "d": d, "count": count}
    assert _exit_code("cnn-label", cfg) in (EXIT_OK, EXIT_CONFIG,
                                            EXIT_TOLERANCE)


def _write_image(path, fmt, pixels, maxval, cut):
    """One image file: a text matrix or a P2/P5 graymap with ``maxval``,
    with its last ``cut`` characters, tokens or bytes of pixel data cut."""
    px = np.asarray(pixels, dtype=float)
    h, w = px.shape
    if fmt == "txt":
        body = f"{h} {w}\n" + "\n".join(
            " ".join(repr(float(v)) for v in row) for row in px)
        path.write_text(body[:len(body) - cut])
    elif fmt == "P2":
        toks = [str(int(v)) for v in px.reshape(-1)]
        toks = toks[:len(toks) - cut]
        path.write_bytes(f"P2\n{w} {h}\n{maxval}\n{' '.join(toks)}\n".encode())
    else:
        data = px.astype(">u1" if maxval < 256 else ">u2").tobytes()
        path.write_bytes(f"P5\n{w} {h}\n{maxval}\n".encode()
                         + data[:len(data) - cut])


@st.composite
def _images(draw):
    fmt = draw(st.sampled_from(["txt", "P2", "P5"]))
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    maxval = draw(st.one_of(st.just(0), st.integers(1, 65535)))
    if draw(st.booleans()):  # constant, so zero-norm windows when 0
        value = st.just(draw(st.integers(0, 2)))
    elif fmt == "txt":
        value = _FINITE
    else:
        value = st.integers(0, max(maxval, 1))
    pixels = draw(st.lists(st.lists(value, min_size=w, max_size=w),
                           min_size=h, max_size=h))
    return fmt, pixels, maxval, draw(st.integers(0, 3))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(images=st.lists(_images(), min_size=1, max_size=2), r=st.integers(2, 6),
       locations=st.one_of(st.none(), st.lists(
           st.lists(st.integers(1, 7), min_size=2, max_size=2), max_size=3)),
       stride=st.one_of(st.none(), st.integers(1, 3)))
# r past the image: no window on the stride grid
@example(images=[("txt", [[1.0]], 0, 0)], r=2, locations=None, stride=None)
# a P2 graymap with fewer pixels than its header promises
@example(images=[("P2", [[1.0, 2.0]], 255, 1)], r=2, locations=None,
         stride=None)
# pixels whose squares overflow
@example(images=[("txt", [[0.0, 0.0], [0.0, 1.35e154]], 0, 0)], r=2,
         locations=None, stride=None)
# a configured location whose window leaves the image
@example(images=[("txt", [[1.0] * 4] * 4, 0, 0)], r=2, locations=[[4, 4]],
         stride=None)
def test_cnn_label_image_exit_codes_fuzz(images, r, locations, stride):
    """Schema-valid image ingestion ends in exit 0, 2 or 3: constant images,
    windows past the image, out-of-range locations, truncated files and a
    zero maxval included."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, (fmt, pixels, maxval, cut) in enumerate(images):
            path = Path(tmp) / (f"{k}.txt" if fmt == "txt" else f"{k}.pgm")
            _write_image(path, fmt, pixels, maxval, cut)
            paths.append(str(path))
        doc = {"paths": paths, "r": r}
        if locations is not None:
            doc["locations"] = locations
        if stride is not None:
            doc["stride"] = stride
        cfg = {"network": {"filters": [1],
                           "activations": [{"activation": "exp"}]},
               "images": doc}
        rc, _ = run(Path(tmp), "cnn-label", cfg, name="out.jsonl")
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_TOLERANCE)


def test_cnn_label_image_edge_cases_exit_codes(tmp_path, capsys):
    """Windows that do not fit, locations outside the image and truncated
    files are config errors; pixels whose squares leave the double range
    still normalize."""
    net = {"filters": [1], "activations": [{"activation": "exp"}]}
    cases = [(("txt", [[1.0]], 0, 0), EXIT_CONFIG),
             (("txt", [[1.0, 2.0], [3.0, 4.0]], 0, 0), EXIT_OK),
             (("P2", [[1.0, 2.0], [3.0, 4.0]], 255, 1), EXIT_CONFIG),
             (("P5", [[1.0, 2.0], [3.0, 4.0]], 255, 1), EXIT_CONFIG),
             (("P5", [[1.0, 2.0], [3.0, 4.0]], 0, 0), EXIT_CONFIG),
             (("txt", [[0.0, 0.0], [0.0, 1.35e154]], 0, 0), EXIT_OK),
             (("txt", [[0.0, 0.0], [0.0, 1e-160]], 0, 0), EXIT_OK)]
    for k, ((fmt, pixels, maxval, cut), want) in enumerate(cases):
        path = tmp_path / (f"{k}.txt" if fmt == "txt" else f"{k}.pgm")
        _write_image(path, fmt, pixels, maxval, cut)
        cfg = {"network": net, "images": {"paths": [str(path)], "r": 2}}
        rc, out = run(tmp_path, "cnn-label", cfg, name=f"{k}.jsonl")
        assert rc == want, (k, rc)
        if rc == EXIT_OK:
            rec = json.loads(out.read_text().splitlines()[1])
            np.testing.assert_allclose(rec["patches"], [[0.0, 0.0, 0.0, 1.0]]
                                       if pixels[0][0] == 0.0 else
                                       [[1.0, 2.0, 3.0, 4.0]] / np.sqrt(30.0),
                                       rtol=1e-15)
    # a configured location whose 2x2 window leaves a 4x4 image
    path = tmp_path / "edge.txt"
    _write_image(path, "txt", [[1.0] * 4] * 4, 0, 0)
    cfg = {"network": net, "images": {"paths": [str(path)], "r": 2,
                                      "locations": [[1, 1], [4, 4]]}}
    capsys.readouterr()
    rc, _ = run(tmp_path, "cnn-label", cfg, name="edge.jsonl")
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: location (4,4) outside "
                                       "valid grid for 4x4 image with r=2\n")


def test_learning_curve_command(tmp_path):
    cfg = {
        "kernel": KERNEL_EI,
        "schedule": {"beta": 2.0},
        "sizes": [16, 32],
        "test_size": 100,
        "target": {"type": "source", "profiles": [{"degrees": [1]}]},
    }
    rc, out = run(tmp_path, "learning-curve", cfg)
    assert rc == EXIT_OK
    _, rows = read_rows(out)
    assert [r[0] for r in rows] == ["16", "32"]
    assert all(len(r) == 5 for r in rows)


def test_learning_curve_network_and_zero_targets(tmp_path):
    base = {"kernel": {"layers": [{"activation": "square"},
                                  {"activation": "square"}], "n": 2, "d": 4},
            "schedule": {"beta": 2.0}, "sizes": [16], "test_size": 50}
    net = dict(base, target={"type": "network",
                             "network": {"filters": [1, 1], "patch_sizes": [2],
                                         "boundary": "valid",
                                         "activations": [{"activation": "square"},
                                                         {"activation": "square"}]}})
    rc, out = run(tmp_path, "learning-curve", net, name="net.csv")
    assert rc == EXIT_OK
    _, rows = read_rows(out)
    assert float(rows[0][3]) >= 0.0
    zero = dict(base, target={"type": "zero"})
    rc, out = run(tmp_path, "learning-curve", zero, name="zero.csv")
    assert rc == EXIT_OK
    _, rows = read_rows(out)
    assert float(rows[0][3]) <= 1e-20


def test_spectrum_fit_rank_range(tmp_path):
    cfg = {"kernel": {"layers": [{"activation": "geometric", "ratio": 0.5},
                                 {"activation": "identity"}],
                      "n": 1, "d": 3,
                      "truncation": {"order": 160, "K_max": 30}},
           "k_max": 30, "fit_rank_range": [10, 900]}
    rc, out = run(tmp_path, "spectrum", cfg, name="geo.csv")
    assert rc == EXIT_OK
    summary = json.loads((tmp_path / "geo.json").read_text())
    assert summary["p"] is not None
    assert abs(summary["counting_slope"] - 2.0) <= 0.5  # (d-1)*min(D,n) = 2


def test_gram_eig_command(tmp_path):
    cfg = {"kernel": {"layers": [{"activation": "identity"},
                                 {"activation": "square"}], "n": 2, "d": 3},
           "ell": 300, "top_k": 5, "k_max": 8}
    rc, out = run(tmp_path, "gram-eig", cfg)
    assert rc == EXIT_OK
    _, rows = read_rows(out)
    assert len(rows) == 5
    assert all(float(r[3]) < 0.5 for r in rows)


def test_cnn_label_command(tmp_path):
    cfg = {"n": 2, "d": 4, "count": 12,
           "network": {"filters": [1, 1], "patch_sizes": [2],
                       "boundary": "valid",
                       "activations": [{"activation": "square"},
                                       {"activation": "square"}]}}
    rc, out = run(tmp_path, "cnn-label", cfg, name="data.jsonl")
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    meta = json.loads(lines[0])
    assert meta["command"] == "cnn-label"
    recs = [json.loads(l) for l in lines[1:]]
    assert len(recs) == 12
    for rec in recs:
        assert np.isfinite(rec["label"])
        assert len(rec["patches"]) == 2 and len(rec["patches"][0]) == 4


def test_cnn_label_zero_scale_network(tmp_path):
    cfg = {"n": 1, "d": 3, "count": 5,
           "network": {"filters": [1, 1], "patch_sizes": [1],
                       "weight_scale": 0.0,
                       "activations": [{"activation": "square"},
                                       {"activation": "square"}]}}
    rc, out = run(tmp_path, "cnn-label", cfg, name="z.jsonl")
    assert rc == EXIT_OK
    recs = [json.loads(l) for l in out.read_text().splitlines()[1:]]
    assert all(rec["label"] == 0.0 for rec in recs)


def test_cnn_label_from_images(tmp_path, rng):
    img_path = tmp_path / "img.txt"
    px = rng.uniform(0.1, 1.0, size=(4, 4))
    img_path.write_text("4 4\n" + "\n".join(
        " ".join(f"{v:.6f}" for v in row) for row in px))
    cfg = {"network": {"filters": [1, 1], "patch_sizes": [2],
                       "boundary": "valid",
                       "activations": [{"activation": "exp"},
                                       {"activation": "exp"}]},
           "images": {"paths": [str(img_path)], "r": 2}}
    rc, out = run(tmp_path, "cnn-label", cfg, name="img.jsonl")
    assert rc == EXIT_OK
    recs = [json.loads(l) for l in out.read_text().splitlines()[1:]]
    assert len(recs) == 1 and len(recs[0]["patches"]) == 4


def test_failed_write_leaves_existing_output_intact(tmp_path, monkeypatch):
    out = tmp_path / "out.csv"
    out.write_text("previous\n")
    # json.dump fails partway through the new file
    with pytest.raises(TypeError):
        cli.write_json(str(out), "spectrum", {}, 0, {"bad": object()})
    assert out.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    # the new file is complete but cannot be moved into place
    def refuse(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(OSError):
        cli.write_csv(str(out), "spectrum", {}, 0, ["a"], [(1,)])
    cfg = {"n": 2, "d": 4, "count": 3,
           "network": {"filters": [1], "activations": [{"activation": "exp"}]}}
    rc, _ = run(tmp_path, "cnn-label", cfg, name="out.csv")
    assert rc == EXIT_CONFIG
    assert out.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cnn-label.json",
                                                          "out.csv"]


def test_unwritable_output_is_exit_2(tmp_path, capsys):
    # the --out directory does not exist: no traceback, exit 2, and the
    # message names the output path
    out = tmp_path / "absent" / "out.csv"
    cfg_path = tmp_path / "spectrum.json"
    cfg_path.write_text(json.dumps({"kernel": KERNEL_EI, "k_max": 4}))
    rc = main(["spectrum", "--config", str(cfg_path), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert f"cannot write output {out}" in capsys.readouterr().err
    assert not out.parent.exists()


def test_validation_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kernel": {"layers": [], "n": 1, "d": 3}}')
    rc = main(["spectrum", "--config", str(bad), "--out",
               str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {bad}: $.kernel.layers: [] should be non-empty\n")
    # errors sorted by path: the first is reported
    bad.write_text('{"kernel": {"layers": [{"activation": "exp"}], "n": 0, '
                   '"d": 3}, "fit_rank_range": [1, true], "k_max": 2.5}')
    rc = main(["spectrum", "--config", str(bad), "--out",
               str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {bad}: $.fit_rank_range[1]: True is not of type "
        "'integer'\n")
    bad.write_text('{"kernel": {')
    rc = main(["spectrum", "--config", str(bad), "--out",
               str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG
    rc = main(["spectrum", "--config", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("literal", [
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400",
    pytest.param("1" + "0" * 400, id="400-digit-integer"),
    # past Python's 4300-digit limit, int() raises ValueError
    pytest.param("1" + "0" * 5000, id="5001-digit-integer")])
def test_non_finite_json_literal_is_config_error(tmp_path, literal):
    # Python's json parses these (a literal past the double range to inf or
    # an int no double holds); as mu_exp they made lambda inf or nan
    cfg_path = tmp_path / "lc.json"
    cfg_path.write_text(
        '{"kernel": {"layers": [{"activation": "exp"}], "n": 1, "d": 2}, '
        f'"schedule": {{"beta": 1.0, "mu_exp": {literal}}}, "sizes": [3], '
        '"target": {"type": "zero"}}')
    out = tmp_path / "lc.csv"
    rc = main(["learning-curve", "--config", str(cfg_path), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert not out.exists()


def test_config_a_max_guard(tmp_path):
    # outer polynomial degree above A_max must fail loudly
    cfg = {"kernel": {"layers": [{"activation": "exp"},
                                 {"activation": "poly",
                                  "coeffs": [0.0] * 20 + [1.0]}],
                      "n": 1, "d": 3,
                      "truncation": {"A_max": 16}},
           "k_max": 4}
    rc, _ = run(tmp_path, "spectrum", cfg)
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("extra", [("--kmax", "0"), ("--kmax", "-2"),
                                   ("--tolerance", "0"),
                                   ("--tolerance", "-0.001")])
def test_out_of_range_overrides_refused(tmp_path, extra):
    # an explicit 0 is an override, and the schema limits apply to it
    cfg = {"kernel": KERNEL_EI, "k_max": 4, "pairs": 2}
    rc, out = run(tmp_path, "reconstruct", cfg, extra=extra)
    assert rc == EXIT_CONFIG
    assert not out.exists()


def test_poly_layer_without_coeffs_is_config_error(tmp_path):
    cfg = {"kernel": {"layers": [{"activation": "exp"},
                                 {"activation": "poly"}], "n": 1, "d": 3},
           "k_max": 4}
    rc, out = run(tmp_path, "spectrum", cfg)
    assert rc == EXIT_CONFIG
    assert not out.exists()


def test_cnn_label_non_finite_labels_exit_3(tmp_path):
    # the first layer's polynomial overflows, so the labels are inf or nan,
    # which JSON cannot hold: no output, exit 3
    cfg = {"n": 2, "d": 3, "count": 3,
           "network": {"filters": [2, 1], "patch_sizes": [2],
                       "activations": [{"activation": "custom",
                                        "coeffs": [1e200, 1e200, 1e200]},
                                       {"activation": "exp"}],
                       "weight_scale": 1e300}}
    rc, out = run(tmp_path, "cnn-label", cfg, name="labels.jsonl")
    assert rc == EXIT_TOLERANCE
    assert not out.exists()


def test_cnn_label_missing_image_is_config_error(tmp_path):
    cfg = {"network": {"filters": [1, 1], "patch_sizes": [2],
                       "boundary": "valid",
                       "activations": [{"activation": "exp"},
                                       {"activation": "exp"}]},
           "images": {"paths": [str(tmp_path / "absent.txt")], "r": 2}}
    rc, out = run(tmp_path, "cnn-label", cfg, name="img.jsonl")
    assert rc == EXIT_CONFIG
    assert not out.exists()


def test_spectrum_exp_past_factorial_overflow(tmp_path):
    # exp coefficients past degree 170 underflow instead of overflowing
    cfg = {"kernel": {"layers": [{"activation": "exp"},
                                 {"activation": "identity"}],
                      "n": 1, "d": 3, "truncation": {"order": 200}},
           "k_max": 10}
    rc, out = run(tmp_path, "spectrum", cfg)
    assert rc == EXIT_OK
    _, rows = read_rows(out)
    assert all(float(r[1]) > 0.0 for r in rows)


def test_learning_curve_beta_one_small_mu_exp_is_config_error(tmp_path):
    # beta = 1 needs mu_exp > (d-1) d* = 6 here; refused before any sampling
    cfg = {"kernel": {"layers": [{"activation": "square"},
                                 {"activation": "square"}], "n": 2, "d": 4},
           "schedule": {"beta": 1.0, "mu_exp": 1.0}, "sizes": [16],
           "test_size": 50, "target": {"type": "zero"}}
    rc, out = run(tmp_path, "learning-curve", cfg)
    assert rc == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("kernel,target", [
    # square f1 has no odd degrees: the default profile [1] has mu = 0
    ({"layers": [{"activation": "square"}, {"activation": "identity"}],
      "n": 1, "d": 2}, {"type": "source"}),
    # two degrees on a one-patch kernel
    (KERNEL_EI, {"type": "source", "profiles": [{"degrees": [9, 9]}]}),
    (KERNEL_EI, {"type": "source", "profiles": [{"degrees": []}]}),
], ids=["zero-eigenvalue", "longer-than-n", "empty-degrees"])
def test_learning_curve_bad_source_profile_is_config_error(tmp_path, kernel,
                                                           target):
    cfg = {"kernel": kernel, "schedule": {"beta": 2.0}, "sizes": [16],
           "test_size": 50, "target": target}
    rc, out = run(tmp_path, "learning-curve", cfg)
    assert rc == EXIT_CONFIG
    assert not out.exists()


ERF_NETWORK = {"filters": [2, 1], "patch_sizes": [2], "boundary": "valid",
               "activations": [{"activation": "erf_sigmoid"},
                               {"activation": "smooth_hinge"}]}


def test_no_command_loads_scipy(tmp_path):
    # the runtime is numpy alone: no command, including the Cholesky,
    # eigvalsh and erf activation paths, loads any scipy module, and config
    # validation loads no jsonschema (nor its referencing, rpds and attrs)
    configs = {
        "spectrum": {"kernel": KERNEL_EI, "k_max": 6},
        "reconstruct": {"kernel": {**KERNEL_EI, "n": 2}, "k_max": 6,
                        "pairs": 3},
        "learning-curve": {
            "kernel": {"layers": [{"activation": "erf_sigmoid"},
                                  {"activation": "square"}], "n": 2, "d": 4},
            "schedule": {"beta": 2.0}, "sizes": [300], "test_size": 20,
            "target": {"type": "network", "network": ERF_NETWORK}},
        "gram-eig": {"kernel": {"layers": [{"activation": "identity"},
                                           {"activation": "square"}],
                                "n": 2, "d": 3},
                     "ell": 60, "top_k": 3, "k_max": 6},
        "cnn-label": {"n": 2, "d": 4, "count": 4, "network": ERF_NETWORK},
    }
    lines = ["import sys",
             "import harmonica.cli as cli",
             "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0]"
             " in ('scipy', 'jsonschema', 'referencing', 'rpds', 'attrs'))"]
    for command, cfg in configs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        lines.append(f"assert cli.main([{command!r}, '--config', "
                     f"{str(path)!r}, '--out', "
                     f"{str(tmp_path / (command + '.out'))!r}]) == 0")
    lines.append("assert not loaded(), loaded()")
    script = "\n".join(lines)
    src = str(Path(harmonica.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
