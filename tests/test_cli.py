import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harmonica
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


def test_validation_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kernel": {"layers": [], "n": 1, "d": 3}}')
    rc = main(["spectrum", "--config", str(bad), "--out",
               str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG
    bad.write_text('{"kernel": {')
    rc = main(["spectrum", "--config", str(bad), "--out",
               str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG
    rc = main(["spectrum", "--config", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG


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


def test_spectrum_and_reconstruct_never_load_scipy(tmp_path):
    # scipy is loaded only by gram-eig, learning-curve and erf activations;
    # importing the CLI and running spectrum and reconstruct load none of it
    spectrum_cfg = tmp_path / "spectrum.json"
    spectrum_cfg.write_text(json.dumps({"kernel": KERNEL_EI, "k_max": 6}))
    reconstruct_cfg = tmp_path / "reconstruct.json"
    reconstruct_cfg.write_text(json.dumps(
        {"kernel": {**KERNEL_EI, "n": 2}, "k_max": 6, "pairs": 3}))
    script = "\n".join([
        "import sys",
        "import harmonica.cli as cli",
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('scipy'))",
        "assert not loaded(), loaded()",
        f"assert cli.main(['spectrum', '--config', {str(spectrum_cfg)!r}, "
        f"'--out', {str(tmp_path / 's.csv')!r}]) == 0",
        f"assert cli.main(['reconstruct', '--config', {str(reconstruct_cfg)!r}, "
        f"'--out', {str(tmp_path / 'r.csv')!r}]) == 0",
        "assert not loaded(), loaded()",
    ])
    src = str(Path(harmonica.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
