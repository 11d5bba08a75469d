import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from harmonica import cli
from harmonica.cli import EXIT_CONFIG, EXIT_OK, EXIT_TOLERANCE, main

from helpers import TAKES, peak_rise, run_fresh

PERFBENCH_CONFIGS = (Path(__file__).resolve().parent.parent / "perfbench"
                     / "configs")

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


def test_composition_tail_overflow_exits_3(tmp_path):
    # S = g(1) = 2 * 5^8 when exp composes onto g: the tail estimate's S^l
    # leaves the double range, and compose refuses the composition
    layers = [{"activation": "exp"},
              {"activation": "poly", "coeffs": [-1, 2, 2, 2]},
              {"activation": "poly", "coeffs": [0] * 8 + [2]},
              {"activation": "exp"}]
    cfg = {"kernel": {"layers": layers, "n": 1, "d": 3,
                      "truncation": {"Q_max": 44}}, "k_max": 1, "pairs": 1}
    rc, out = run(tmp_path, "reconstruct", cfg)
    assert rc == EXIT_TOLERANCE
    assert not out.exists()


# a config with each command's activation lists, and a getter for the
# activation list that the stray parameter goes into
_STRAY_BASES = {
    "spectrum": ({"kernel": KERNEL_EI, "k_max": 4},
                 lambda cfg: cfg["kernel"]["layers"]),
    "reconstruct": ({"kernel": KERNEL_EI, "k_max": 20, "pairs": 3},
                    lambda cfg: cfg["kernel"]["layers"]),
    "gram-eig": ({"kernel": KERNEL_EI, "ell": 20, "top_k": 2, "k_max": 4},
                 lambda cfg: cfg["kernel"]["layers"]),
    "learning-curve": (
        {"kernel": KERNEL_EI, "schedule": {"beta": 1.0, "mu_exp": 3.0},
         "sizes": [10], "test_size": 5,
         "target": {"type": "network",
                    "network": {"filters": [1],
                                "activations": [{"activation": "exp"}]}}},
        lambda cfg: cfg["target"]["network"]["activations"]),
    "cnn-label": ({"network": {"filters": [1],
                               "activations": [{"activation": "exp"}]},
                   "n": 1, "d": 3, "count": 2},
                  lambda cfg: cfg["network"]["activations"]),
}


@pytest.mark.parametrize("command", sorted(_STRAY_BASES))
@pytest.mark.parametrize("layer,stray", [
    ({"activation": "exp"}, {"ratio": 0.5}),
    ({"activation": "square"}, {"coeffs": [0, 0, 0, 7]}),
    ({"activation": "identity"}, {"coeffs": []}),
    ({"activation": "poly", "coeffs": [0, 1]}, {"ratio": 0.5}),
    ({"activation": "geometric", "ratio": 0.5}, {"coeffs": [1]}),
], ids=["exp-ratio", "square-coeffs", "identity-empty-coeffs", "poly-ratio",
        "geometric-coeffs"])
def test_parameter_a_kind_does_not_take_exits_2(tmp_path, capsys, command,
                                                layer, stray):
    base, layers_of = _STRAY_BASES[command]
    cfg = json.loads(json.dumps(base))
    layers_of(cfg)[-1] = dict(layer)
    name = "out.jsonl" if command == "cnn-label" else "out.csv"
    plain, bad = tmp_path / "plain", tmp_path / "stray"
    plain.mkdir()
    bad.mkdir()
    rc, _ = run(plain, command, cfg, name=name)
    assert rc == EXIT_OK, capsys.readouterr().err  # runs without the key
    layers_of(cfg)[-1].update(stray)
    capsys.readouterr()
    rc, _ = run(bad, command, cfg, name=name)
    assert rc == EXIT_CONFIG
    [key] = stray
    assert f"takes no {key}" in capsys.readouterr().err
    # nothing but the config: no CSV, JSON or JSON lines written
    assert [p.name for p in bad.iterdir()] == [f"{command}.json"]


# every finite float is schema-valid: huge coefficients overflow the series
# arithmetic, which must end in exit 3, not a traceback. main runs each
# command under np.errstate, so the exit-code fuzzers also fail on a numpy
# RuntimeWarning, which would reach stderr
_COEFFS = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                   min_size=0, max_size=6)
_RATIO = st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                  exclude_max=True)
_KINDS = ["exp", "square", "identity", "erf_sigmoid", "smooth_hinge",
          "geometric", "poly", "custom"]
_LAYER = st.one_of(
    st.builds(lambda kind: {"activation": kind}, st.sampled_from(_KINDS)),
    st.builds(lambda kind, c: {"activation": kind, "coeffs": c},
              st.sampled_from(["poly", "custom"]), _COEFFS),
    st.builds(lambda r: {"activation": "geometric", "ratio": r}, _RATIO),
    # a parameter the kind does not take (alone, or beside its own): exit 2
    st.one_of(
        st.builds(lambda kind, c: {"activation": kind, "coeffs": c},
                  st.sampled_from([k for k in _KINDS
                                   if TAKES.get(k) != "coeffs"]), _COEFFS),
        st.builds(lambda kind, r: {"activation": kind, "ratio": r},
                  st.sampled_from([k for k in _KINDS
                                   if TAKES.get(k) != "ratio"]), _RATIO),
        st.builds(lambda kind, c, r: {"activation": kind, "coeffs": c,
                                      "ratio": r},
                  st.sampled_from(sorted(TAKES)), _COEFFS.filter(bool),
                  _RATIO)),
)


# about two in three drawn layer lists carry a stray parameter, which stops
# the command at exit 2; 100 examples leave each exit-code fuzzer about 40
# configs that run further
_FUZZ_EXAMPLES = 100


def _has_stray(layers) -> bool:
    """True when a layer carries a parameter its kind does not take."""
    return any(key in layer and TAKES.get(layer["activation"]) != key
               for layer in layers for key in ("coeffs", "ratio"))


def _expected_exits(layers) -> tuple:
    """Exit 2 for a stray parameter in a kernel's or network's layers,
    else any of 0, 2 and 3; never 1."""
    if _has_stray(layers):
        return (EXIT_CONFIG,)
    return (EXIT_OK, EXIT_CONFIG, EXIT_TOLERANCE)


_TRUNCATION = st.fixed_dictionaries({}, optional={
    "K_max": st.integers(0, 8), "A_max": st.integers(0, 8),
    "Q_max": st.integers(1, 24), "order": st.integers(1, 48),
    "L_max": st.integers(1, 24),
    "s_tol": st.floats(min_value=0.0, exclude_min=True,
                       allow_infinity=False)})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=_FUZZ_EXAMPLES, deadline=None)
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
    assert rc in _expected_exits(layers)


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
@settings(max_examples=_FUZZ_EXAMPLES, deadline=None)
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
    assert _exit_code("spectrum", cfg) in _expected_exits(kernel["layers"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=_FUZZ_EXAMPLES, deadline=None)
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
    expected = _expected_exits(kernel["layers"])
    if expected != (EXIT_CONFIG,) and _has_stray(
            target.get("network", {}).get("activations", [])):
        # the kernel is built first, and may fail numerically first
        expected = (EXIT_CONFIG, EXIT_TOLERANCE)
    assert _exit_code("learning-curve", cfg) in expected


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=_FUZZ_EXAMPLES, deadline=None)
@given(kernel=_KERNEL, ell=st.integers(1, 300), top_k=st.integers(1, 10),
       k_max=st.integers(1, 6))
# a packed Gram of two blocks, the second of 9 rows
@example(kernel={"layers": [{"activation": "exp"}, {"activation": "square"}],
                 "n": 2, "d": 3}, ell=129, top_k=3, k_max=4)
def test_gram_eig_exit_codes_fuzz(kernel, ell, top_k, k_max):
    cfg = {"kernel": kernel, "ell": ell, "top_k": top_k, "k_max": k_max}
    assert _exit_code("gram-eig", cfg) in _expected_exits(kernel["layers"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=_FUZZ_EXAMPLES, deadline=None)
@given(network=_NETWORK, n=st.integers(1, 3), d=st.integers(2, 4),
       count=st.integers(1, 5))
def test_cnn_label_exit_codes_fuzz(network, n, d, count):
    cfg = {"network": network, "n": n, "d": d, "count": count}
    assert _exit_code("cnn-label", cfg) in _expected_exits(
        network["activations"])


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


def test_gram_eig_unallocatable_gram_exits_2(tmp_path, capsys):
    # the 5e6-point Gram needs 200 TB, past the 128 TiB user address space,
    # so no overcommit policy grants it; the sample batch is 80 MB
    cfg = {"kernel": {"layers": [{"activation": "identity"},
                                 {"activation": "square"}], "n": 1, "d": 2},
           "ell": 5 * 10 ** 6, "top_k": 1, "k_max": 2}
    rc, out = run(tmp_path, "gram-eig", cfg)
    assert rc == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


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


def test_config_a_max_guard(tmp_path, capsys):
    # an outer polynomial degree past A_max, a degree cutoff past the f1
    # coefficients, a polynomial layer or outer degree past its series
    # (order, Q_max, L_max) and an order past MAX_ORDER must fail loudly on
    # every command that builds a kernel, learning-curve with a network
    # target too; the message names the key to raise
    exp, square = {"activation": "exp"}, {"activation": "square"}
    poly20 = {"activation": "poly", "coeffs": [0.0] * 20 + [1.0]}
    poly40 = {"activation": "poly", "coeffs": [0.0] * 40 + [1.0]}
    poly70 = {"activation": "poly", "coeffs": [0.0] * 70 + [1.0]}
    poly5000 = {"activation": "poly", "coeffs": [0.0] * 5000 + [1.0]}
    t20 = {"layers": [exp, poly20], "n": 1, "d": 3,
           "truncation": {"A_max": 16}}
    t40 = {"layers": [exp, poly40], "n": 1, "d": 3,
           "truncation": {"A_max": 48, "Q_max": 32, "order": 200}}
    source = {"type": "source", "profiles": [{"degrees": [70]}]}
    network = {"type": "network",
               "network": {"filters": [1, 1], "patch_sizes": [2],
                           "boundary": "valid",
                           "activations": [square, square]}}

    def curve(layers, **trunc):
        return {"kernel": {"layers": layers, "n": 2, "d": 4,
                           "truncation": trunc},
                "schedule": {"beta": 2.0}, "sizes": [8], "test_size": 4,
                "target": network}

    cases = [
        ("spectrum", {"kernel": t20, "k_max": 4}, (), "A_max"),
        ("spectrum", {"kernel": KERNEL_EI, "k_max": 65}, (), "order"),
        ("spectrum", {"kernel": KERNEL_EI, "k_max": 4}, ("--kmax", "70"),
         "order"),
        ("reconstruct", {"kernel": KERNEL_EI, "k_max": 65, "pairs": 2}, (),
         "order"),
        ("gram-eig", {"kernel": KERNEL_EI, "k_max": 65, "ell": 20,
                      "top_k": 2}, (), "order"),
        ("learning-curve", {"kernel": KERNEL_EI, "schedule": {"beta": 2.0},
                            "sizes": [8], "test_size": 4, "target": source},
         (), "order"),
        ("spectrum", {"kernel": t40, "k_max": 4}, (), "Q_max"),
        ("reconstruct", {"kernel": t40, "k_max": 4, "pairs": 2}, (), "Q_max"),
        ("gram-eig", {"kernel": t40, "k_max": 4, "ell": 20, "top_k": 2}, (),
         "Q_max"),
        # a kernel identically 0: g is poly40 cut to nothing at Q_max 32
        ("learning-curve", curve([exp, poly40], Q_max=32), (), "Q_max"),
        # K == 0 too: f1 is poly70 cut to zero at order 64
        ("learning-curve", curve([poly70, square]), (), "order"),
        # poly70 composed onto square keeps only powers up to L_max 64
        ("learning-curve", curve([exp, square, poly70], Q_max=200), (),
         "L_max"),
        # an outer polynomial cut at Q_max under a non-polynomial layer
        ("learning-curve", curve([exp, poly70, exp]), (), "Q_max"),
        ("gram-eig", {"kernel": {"layers": [poly70, square], "n": 1, "d": 3},
                      "k_max": 4, "ell": 20, "top_k": 2}, (), "order"),
        ("spectrum", {"kernel": dict(KERNEL_EI, truncation={"order": 5000}),
                      "k_max": 4}, (), "order"),
        # a coefficient list longer than MAX_ORDER is still refused by key
        ("spectrum", {"kernel": {"layers": [poly5000, square], "n": 1,
                                 "d": 3}, "k_max": 4}, (), "order")]
    for i, (command, cfg, extra, key) in enumerate(cases):
        capsys.readouterr()
        rc, out = run(tmp_path, command, cfg, name=f"{i}.csv", extra=extra)
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG, (command, cfg, extra, err)
        assert f"truncation.{key}" in err
        assert not out.exists()


def test_spectrum_polynomial_f1_too_short_for_its_powers(tmp_path, capsys):
    # f1 = x^3 with A_max 16 needs truncation.order >= 48 to hold f1^16
    # whole; a shorter order is refused, and any order that holds it gives
    # the rows of a longer one
    def cfg(order):
        layers = [{"activation": "poly", "coeffs": [0, 0, 0, 1]},
                  {"activation": "exp"}]
        return {"kernel": {"layers": layers, "n": 1, "d": 3,
                           "truncation": {"order": order, "Q_max": 16,
                                          "A_max": 16}},
                "k_max": 11}

    for order in (11, 47):
        capsys.readouterr()
        rc, out = run(tmp_path, "spectrum", cfg(order), name=f"{order}.csv")
        assert rc == EXIT_CONFIG
        assert "truncation.order" in capsys.readouterr().err
        assert not out.exists()
    rc, out = run(tmp_path, "spectrum", cfg(64), name="64.csv")
    assert rc == EXIT_OK
    _, want = read_rows(out)
    for order in (48, 49):
        rc, out = run(tmp_path, "spectrum", cfg(order), name=f"{order}.csv")
        assert rc == EXIT_OK
        assert read_rows(out)[1] == want


@pytest.mark.parametrize("extra", [("--kmax", "0"), ("--kmax", "-2"),
                                   ("--tolerance", "0"),
                                   ("--tolerance", "-0.001"),
                                   ("--tolerance", "nan"),
                                   ("--tolerance", "inf")])
def test_out_of_range_overrides_refused(tmp_path, extra):
    # an explicit 0 is an override, and the schema limits apply to it; a
    # nan passes every bound, so it is refused as a non-finite literal is
    cfg = {"kernel": KERNEL_EI, "k_max": 4, "pairs": 2}
    rc, out = run(tmp_path, "reconstruct", cfg, extra=extra)
    assert rc == EXIT_CONFIG
    assert not out.exists()


def test_flags_are_their_config_keys(tmp_path):
    # --kmax and --tolerance are written into the config before it is
    # hashed: the header records the settings the rows came from
    cfg = {"kernel": KERNEL_EI, "k_max": 2, "pairs": 3, "tolerance": 1e-3}

    def sha(path):
        return next(h for h in read_rows(path)[0] if "config_sha256" in h)

    _, k4 = run(tmp_path, "reconstruct", cfg, name="k4.csv",
                extra=("--kmax", "4", "--tolerance", "0.5"))
    _, k8 = run(tmp_path, "reconstruct", cfg, name="k8.csv",
                extra=("--kmax", "8", "--tolerance", "0.5"))
    _, key = run(tmp_path, "reconstruct", {**cfg, "k_max": 8, "tolerance": 0.5},
                 name="key.csv")
    assert sha(k4) != sha(k8)
    assert read_rows(k4)[1] != read_rows(k8)[1]
    assert k8.read_bytes() == key.read_bytes()


FLAG_CONFIGS = {
    "spectrum": {"kernel": KERNEL_EI, "k_max": 4},
    "reconstruct": {"kernel": KERNEL_EI, "k_max": 10, "pairs": 2},
    "learning-curve": {"kernel": KERNEL_EI, "schedule": {"beta": 2.0},
                       "sizes": [8], "test_size": 4,
                       "target": {"type": "zero"}},
    "gram-eig": {"kernel": KERNEL_EI, "k_max": 4, "ell": 20, "top_k": 2},
    "cnn-label": {"n": 2, "d": 3, "count": 2,
                  "network": {"filters": [1], "activations": [
                      {"activation": "exp"}]}},
}


@pytest.mark.parametrize("command, flag", [
    # a flag whose config key the command's schema does not have
    *((c, "--kmax=3") for c in ("learning-curve", "cnn-label")),
    *((c, "--tolerance=0.1")
      for c in ("spectrum", "gram-eig", "learning-curve", "cnn-label")),
    # numpy's generators take no negative seed, and spectrum draws none
    *((c, "--seed=-1") for c in sorted(FLAG_CONFIGS)),
    # every command takes --threads, and none can run on fewer than one
    *((c, f"--threads={v}") for c in sorted(FLAG_CONFIGS) for v in (0, -3))])
def test_flag_refused_with_nothing_written(tmp_path, capsys, command, flag):
    rc, _ = run(tmp_path, command, FLAG_CONFIGS[command], name="ok.out")
    assert rc == EXIT_OK
    capsys.readouterr()
    rc, out = run(tmp_path, command, FLAG_CONFIGS[command], name="bad.out",
                  extra=(flag,))
    assert rc == EXIT_CONFIG
    named = {"--kmax": "'k_max'", "--tolerance": "'tolerance'",
             "--seed": "--seed", "--threads": "--threads"}[flag.split("=")[0]]
    assert named in capsys.readouterr().err
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


@pytest.mark.parametrize("command", ["cnn-label", "learning-curve"])
@pytest.mark.parametrize("sizes", [
    {},  # two layers need one hidden patch size
    {"patch_sizes": [5], "boundary": "valid"},  # wider than 3 positions
], ids=["no-patch-sizes", "patch-wider-than-input"])
def test_unbuildable_network_is_config_error(tmp_path, capsys, command,
                                             sizes):
    network = {"filters": [2, 1], **sizes,
               "activations": [{"activation": "exp"}, {"activation": "exp"}]}
    if command == "cnn-label":
        cfg = {"n": 3, "d": 3, "network": network}
    else:
        cfg = {"kernel": {**KERNEL_EI, "n": 3}, "schedule": {"beta": 2.0},
               "sizes": [8], "test_size": 4,
               "target": {"type": "network", "network": network}}
    rc, out = run(tmp_path, command, cfg)
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
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
    run_fresh("\n".join(lines))


def _hashlib_digest(cfg) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", ["spectrum-decay", "nystrom",
                                  "learning-curve", "mercer-reconstruct"])
def test_config_hash_is_hashlib_sha256(name):
    cfg = json.loads((PERFBENCH_CONFIGS / f"{name}.json").read_text())
    assert cli.config_hash(cfg) == _hashlib_digest(cfg)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4), max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(), _JSON, max_size=6))
def test_config_hash_is_hashlib_sha256_on_json_documents(cfg):
    assert cli.config_hash(cfg) == _hashlib_digest(cfg)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_spectrum_command_loads_no_openssl(tmp_path):
    # with the interpreter's own SHA-256 available, the spectrum command on
    # the benchmark config never loads OpenSSL (hashlib's _hashlib), no
    # least-squares fit pages in LAPACK, and no np.unique loads numpy.ma:
    # from numpy's import to the end of the run the peak resident memory
    # rose by about 5.1 MiB, against about 5.9 MiB with np.unique and
    # 10.4 MiB with hashlib and np.polyfit as well
    config = PERFBENCH_CONFIGS / "spectrum-decay.json"
    out = tmp_path / "decay.csv"
    rise = peak_rise(["import importlib.util, sys", "import numpy"], "\n".join([
        "from harmonica import cli",
        f"assert cli.main(['spectrum', '--config', {str(config)!r}, "
        f"'--out', {str(out)!r}]) == 0",
        "builtin = any(importlib.util.find_spec(m)",
        "              for m in ('_sha2', '_sha256'))",
        "assert not (builtin and '_hashlib' in sys.modules), 'OpenSSL loaded'",
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma loaded'",
    ]))
    assert out.exists() and out.with_suffix(".json").exists()
    assert rise <= 8 * 2 ** 20, rise / 2 ** 20


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
@pytest.mark.parametrize("command, name, bound", [
    # sampling, the only randomness reconstruct draws, imports numpy.random
    # through image.default_rng, which keeps OpenSSL out: from numpy's
    # import to the end of the run the peak resident memory rose by about
    # 6.8 MiB, against about 10.2 MiB when numpy.random loaded OpenSSL
    ("reconstruct", "mercer-reconstruct", 8.5 * 2 ** 20),
    # the Gram dominates these two peaks, so only the import is checked
    ("gram-eig", "nystrom", None),
    ("learning-curve", "learning-curve", None),
])
def test_seeded_command_loads_no_openssl(tmp_path, command, name, bound):
    config = PERFBENCH_CONFIGS / f"{name}.json"
    out = tmp_path / "out.csv"
    rise = peak_rise(["import importlib.util, sys", "import numpy"], "\n".join([
        "from harmonica import cli",
        f"assert cli.main([{command!r}, '--config', {str(config)!r}, "
        f"'--out', {str(out)!r}]) == 0",
        "assert 'numpy.random' in sys.modules",
        "builtin = any(importlib.util.find_spec(m)",
        "              for m in ('_sha2', '_sha256'))",
        "assert not (builtin and '_hashlib' in sys.modules), 'OpenSSL loaded'",
    ]))
    assert out.exists()
    if bound is not None:
        assert rise <= bound, rise / 2 ** 20
