"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print. Tolerances are fixed here, not configurable.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.special import erfi

from harmonica.activations import activation, majorant_series
from harmonica.cli import main as cli_main
from harmonica.cnn import forward, random_params
from harmonica.harmonics import funk_hecke_eigenvalue
from harmonica.image import sample_uniform_batch
from harmonica.kernel import TruncationConfig, build_kernel, eval_kernel
from harmonica.krr import (Dataset, Schedule, SourceTarget,
                           closed_form_top_eigs, learning_curve, nystrom_eigs,
                           predict, rls_fit, schedule_lambda)
from harmonica.spectrum import (SpectralExpansion, enumerate_spectrum,
                                expand_spectrum, fit_decay, lambda_table,
                                mu_eigenvalue, eigenvalue_windows)
from harmonica.taylor import (cauchy_product, compose, exp_series,
                              geometric_series, power)

from conftest import brute_force_power, brute_force_product, fd_derivative


@contextmanager
def criterion(num, label):
    state = {"ok": False}
    try:
        yield state
        state["ok"] = True
    finally:
        verdict = "PASS" if state["ok"] else "FAIL"
        print(f"\nACCEPTANCE {num} {verdict}: {label}")


def test_criterion_1_series_engine():
    with criterion(1, "series engine vs convolution and FD oracles (1e-8, <1s)"):
        t0 = time.perf_counter()
        order = 32
        inputs = {k: majorant_series(activation(k), order)
                  for k in ("exp", "square", "erf_sigmoid")}
        worst = 0.0
        for a, b in itertools.product(inputs.values(), repeat=2):
            got = cauchy_product(a, b, order).coeffs
            want = brute_force_product(a.coeffs, b.coeffs, order)
            worst = max(worst, _rel_dev(got, want))
        for a in inputs.values():
            for alpha in (2, 3, 4):
                got = power(a, alpha, order).coeffs
                want = brute_force_power(a.coeffs, alpha, order)
                worst = max(worst, _rel_dev(got, want))
        # composition against scalar finite differences (derivative orders
        # <= 4: a 32nd derivative is beyond double-precision FD, so higher
        # coefficients are covered by the convolution legs above); the
        # erf-sigmoid majorant as a scalar function is (1 + erfi(sqrt(pi)x))/2
        compose_cases = [
            (exp_series(64), exp_series(64),
             lambda x: math.exp(math.exp(x))),
            (inputs["square"], inputs["erf_sigmoid"],
             lambda x: (0.5 + 0.5 * float(erfi(math.sqrt(math.pi) * x))) ** 2),
        ]
        for outer, inner, scalar in compose_cases:
            got = compose(outer, inner, order)
            for m in range(5):
                # erfi-type integrands need a finer step for the m=4 stencil
                want = fd_derivative(scalar, m, h=0.03) / math.factorial(m)
                if abs(want) > 1e-9:
                    worst = max(worst, abs(got.coeffs[m] - want) / abs(want))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-8, f"worst relative deviation {worst:.3e}"
        assert elapsed < 1.0, f"runtime {elapsed:.2f}s"


def _rel_dev(got, want):
    got = np.asarray(got)
    want = np.asarray(want)
    scale = np.maximum(np.abs(want), 1e-300)
    mask = np.abs(want) > 1e-12 * np.abs(want).max()
    if not mask.any():
        return 0.0
    return float((np.abs(got - want)[mask] / scale[mask]).max())


def test_criterion_2_funk_hecke_agreement():
    with criterion(2, "lambda table vs quadrature: one global kappa, 1e-6"):
        for d in (2, 3, 4):
            for f1 in (exp_series(96), geometric_series(0.5, 96)):
                table = lambda_table(f1, d, 10, 4)
                ratios = []
                for alpha in range(5):
                    fa = power(f1, alpha, f1.order)
                    for k in range(11):
                        lam = table.lam[k, alpha]
                        fh = funk_hecke_eigenvalue(fa, k, d)
                        if lam > 1e-250:
                            ratios.append(fh / lam)
                        else:
                            assert abs(fh) < 1e-12, (d, k, alpha)
                ratios = np.asarray(ratios)
                kappa = table.kappa
                assert np.all(np.abs(ratios / kappa - 1.0) <= 1e-6), \
                    f"kappa spread {np.ptp(ratios):.3e} at d={d}"
                # after normalization the table matches quadrature to 1e-6
                assert np.abs(ratios.max() / ratios.min() - 1.0) <= 1e-6


MERCER_CONFIGS = [(n, d, outer)
                  for n in (1, 2, 3) for d in (2, 3)
                  for outer in ("identity", "square")]


def test_criterion_3_mercer_reconstruction():
    with criterion(3, "Mercer reconstruction <= 1e-5 over 100 pairs (<2min)"):
        t0 = time.perf_counter()
        worst = 0.0
        for n, d, outer in MERCER_CONFIGS:
            spec = build_kernel([activation("exp"), activation(outer)], n, d)
            k_max = 20 if n == 1 else 12
            table = lambda_table(spec.f1, d, k_max, spec.q_cap)
            expansion = SpectralExpansion(spec, table, k_max)
            xs = sample_uniform_batch(100, n, d, (101, n, d))
            ys = sample_uniform_batch(100, n, d, (102, n, d))
            scale = spec.diag_value()
            spectral = expansion.reconstruct(xs, ys)
            for x, y, s in zip(xs, ys, spectral):
                err = abs(eval_kernel(spec, x, y) - s) / scale
                worst = max(worst, err)
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-5, f"worst {worst:.3e}"
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s"


ANOVA_OUTER = {1: ["identity"], 2: ["square"], 4: ["square", "square"]}


def test_criterion_4_anova_vanishing():
    with criterion(4, "profiles with > min(D,n) nonzero degrees have mu = 0"):
        k_max = 8
        for D, n in itertools.product((1, 2, 4), (2, 3, 6)):
            acts = [activation("exp")] + [activation(a) for a in ANOVA_OUTER[D]]
            spec = build_kernel(acts, n, 3)
            assert spec.D == float(D)
            table = lambda_table(spec.f1, 3, k_max, spec.q_cap)
            d_star = min(D, n)
            violations = 0
            checked = 0
            for w in range(n + 1):
                for combo in itertools.combinations_with_replacement(
                        range(1, k_max + 1), w):
                    mu = mu_eigenvalue(spec, combo, table)
                    if w > d_star:
                        checked += 1
                        if mu != 0.0:
                            violations += 1
            if d_star < n:
                assert checked > 0  # vacuous only when d* = n
            assert violations == 0, f"D={D} n={n}: {violations} nonzero"


DECAY_CONFIGS = [
    # (d, n, outer, ratio, k_max, order, target slope (d-1)*min(D,n))
    (3, 2, "square", 0.5, 25, 160, 4.0),
    (2, 1, "identity", 0.9, 1200, 4000, 1.0),
    (3, 3, "identity", 0.5, 30, 160, 2.0),
]


def test_criterion_5_decay_law():
    with criterion(5, "counting-function slope within 25% of (d-1)d*"):
        for d, n, outer, ratio, k_max, order, target in DECAY_CONFIGS:
            t0 = time.perf_counter()
            tc = TruncationConfig(series_order=order, k_max=k_max)
            spec = build_kernel([activation("geometric", ratio=ratio),
                                 activation(outer)], n, d, tc)
            table = lambda_table(spec.f1, d, k_max, spec.q_cap)
            entries = enumerate_spectrum(spec, table, k_max)
            mass = int(expand_spectrum(entries).size)
            assert mass >= 2000, f"only {mass} eigenvalues at d={d} n={n}"
            fit = fit_decay(entries, m_min=20, m_max=min(mass, 20000))
            slope = fit["counting_slope"]
            elapsed = time.perf_counter() - t0
            assert abs(slope - target) <= 0.25 * target, \
                f"d={d} n={n}: slope {slope:.3f} vs {target}"
            assert elapsed < 300.0, f"runtime {elapsed:.1f}s"
            print(f"  decay d={d} n={n}: slope {slope:.3f} "
                  f"(target {target}), p {fit['exponent_p']}, "
                  f"{mass} eigenvalues, {elapsed:.1f}s")


def test_criterion_6_eigenvalue_windows():
    with criterion(6, "eigenvalue window sequences bounded (no 10x drift m=25..50)"):
        r = 0.5
        f1 = geometric_series(r, 240)
        table = lambda_table(f1, 3, 50, 4)
        windows = eigenvalue_windows(table, r, alphas=(1, 2, 3, 4), m_max=50)
        for alpha, w in windows.items():
            up, lo = w["upper_seq"], w["lower_seq"]
            assert np.all(up > 0) and np.all(lo > 0)
            assert math.isfinite(w["upper_window_ratio"])
            assert math.isfinite(w["lower_window_ratio"])
            # bounded above: the normalized-by-upper-bound sequence must not
            # grow; bounded below: the lower one must not collapse
            assert up[50] <= 10.0 * up[25], f"alpha={alpha} upper drift"
            assert lo[50] >= lo[25] / 10.0, f"alpha={alpha} lower drift"
            print(f"  alpha={alpha}: upper ratio {w['upper_window_ratio']:.3e}, "
                  f"lower ratio {w['lower_window_ratio']:.3e}")


NYSTROM_SEED = 4  # documented: determinism pins the draw (see notes)


def test_criterion_7_nystrom_consistency():
    with criterion(7, "top-10 Nystrom vs closed form within 10% at ell=2000"):
        configs = [
            ([activation("exp"), activation("identity")], 1),
            ([activation("identity"), activation("square")], 2),
        ]
        for acts, n in configs:
            spec = build_kernel(acts, n, 3)
            table = lambda_table(spec.f1, 3, 20, spec.q_cap)
            entries = enumerate_spectrum(spec, table, 20)
            closed = closed_form_top_eigs(spec, table, entries, 10)
            nys = nystrom_eigs(spec, 2000, 10, seed=NYSTROM_SEED)
            rel = np.abs(nys - closed) / closed
            assert rel.max() <= 0.10, f"n={n}: max dev {rel.max():.3f}"
            print(f"  n={n}: max per-rank deviation {rel.max():.3f}")
            # stronger, unbiased check: mean over each full degenerate
            # multiplet agrees to 5%
            full = nystrom_eigs(spec, 2000, 30, seed=NYSTROM_SEED)
            rank = 0
            for e in entries:
                if rank + e.multiplicity > 30:
                    break
                grp = full[rank:rank + e.multiplicity]
                mu = e.mu * table.kappa ** spec.n
                assert abs(grp.mean() - mu) / mu <= 0.05
                rank += e.multiplicity


def test_criterion_8_rls_behavior():
    with criterion(8, "schedules exact; curves nonincreasing; CNN interpolated"):
        # (a) the three displayed schedule formulas by direct substitution
        assert schedule_lambda(Schedule(beta=2.0), 16, 3, 2) == 0.25
        assert schedule_lambda(Schedule(beta=1.0, mu_exp=5.0), 148, 3, 2) \
            == pytest.approx(math.log(148) ** 5 / 148, rel=1e-15)
        assert schedule_lambda(Schedule(beta=0.5), 100, 3, 2) \
            == pytest.approx(math.log(100) ** 8 / 100, rel=1e-15)

        # (b) noise-free in-RKHS target: median test MSE over 5 seeds is
        # nonincreasing in ell within 10% slack
        spec = build_kernel([activation("exp"), activation("identity")], 1, 3)
        table = lambda_table(spec.f1, 3, 5, spec.q_cap)
        anchor = sample_uniform_batch(1, 1, 3, 12345)[0]
        target = SourceTarget(spec, table, anchor, [((1,), 1.0)])
        sizes = [32, 64, 128, 256, 512, 1024]
        curves = [
            [row["test_mse"] for row in learning_curve(
                spec, target, Schedule(beta=2.0), sizes, 2000, seed)]
            for seed in range(5)
        ]
        med = np.median(np.asarray(curves), axis=0)
        for i in range(len(sizes) - 1):
            assert med[i + 1] <= 1.10 * med[i], \
                f"median MSE rose at ell={sizes[i + 1]}: {med}"
        print(f"  median MSE curve: {[f'{v:.2e}' for v in med]}")

        # (c) CNN-generated polynomial target interpolated at tiny lambda
        acts = [activation("square"), activation("square")]
        spec2 = build_kernel(acts, 2, 4)
        params = random_params(2, 4, filters=[1, 1], patch_sizes=[2],
                               seed=42, boundary="valid")
        xs = sample_uniform_batch(64, 2, 4, 777)
        ys = forward(params, acts, xs)
        fit = rls_fit(spec2, Dataset(xs=xs, ys=ys), 1e-10)
        resid = float(np.abs(predict(spec2, fit, xs) - ys).max())
        assert resid <= 1e-6, f"training residual {resid:.3e}"
        print(f"  CNN interpolation residual {resid:.2e}")


CLI_CONFIGS = {
    "spectrum": {"kernel": {"layers": [{"activation": "exp"},
                                       {"activation": "identity"}],
                            "n": 1, "d": 3}, "k_max": 10},
    "reconstruct": {"kernel": {"layers": [{"activation": "exp"},
                                          {"activation": "square"}],
                               "n": 2, "d": 3}, "k_max": 8, "pairs": 15},
    "learning-curve": {"kernel": {"layers": [{"activation": "exp"},
                                             {"activation": "identity"}],
                                  "n": 1, "d": 3},
                       "schedule": {"beta": 2.0}, "sizes": [16, 32],
                       "test_size": 64,
                       "target": {"type": "source",
                                  "profiles": [{"degrees": [1]}]}},
    "gram-eig": {"kernel": {"layers": [{"activation": "identity"},
                                       {"activation": "square"}],
                            "n": 2, "d": 3},
                 "ell": 250, "top_k": 5, "k_max": 6},
    "cnn-label": {"n": 2, "d": 4, "count": 8,
                  "network": {"filters": [1, 1], "patch_sizes": [2],
                              "boundary": "valid",
                              "activations": [{"activation": "square"},
                                              {"activation": "square"}]}},
}


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "every CLI command byte-identical across two runs"):
        for command, cfg in CLI_CONFIGS.items():
            cfg_path = tmp_path / f"{command}.json"
            cfg_path.write_text(json.dumps(cfg))
            outs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{command}_{tag}.out"
                rc = cli_main([command, "--config", str(cfg_path),
                               "--out", str(out), "--seed", "11"])
                assert rc == 0, f"{command} exited {rc}"
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], f"{command} output differs across runs"
            if command == "spectrum":
                j = [(tmp_path / f"spectrum_{t}.json").read_bytes()
                     for t in ("a", "b")]
                assert j[0] == j[1]
