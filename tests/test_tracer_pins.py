"""The library names the benchmark's tracer wraps must stay in place.

``perfbench/layers.py`` ``install()`` looks each measured function up with
``getattr`` on the module (or class) where its caller finds it, so deleting
or moving one of those names breaks the traced benchmark run. These tests
run ``install()`` with a tracer that only checks each name, and pin the
calls the traced metrics rest on: the per-profile ``mu_eigenvalue`` calls
that ``spectrum.enum_yield`` divides by, and the Gram that the Nystrom
eigensolver and the RLS fit get through ``krr.gram``, which
``kernel.gram_s`` times and ``kernel.entries`` counts, and the one batched
``cli.eval_kernel`` call of ``reconstruct``, which ``kernel.eval_s`` times.
"""

import importlib
import json
from pathlib import Path

import numpy as np

from harmonica import cli, krr, spectrum
from harmonica.activations import activation
from harmonica.image import sample_uniform_batch
from harmonica.kernel import build_kernel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class NameCheckingTracer:
    """Stands in for the perfbench tracer; wraps nothing."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attr, name, count=None):
        assert callable(getattr(owner, attr, None)), \
            f"{owner.__name__}.{attr} (traced as {name}) is gone"
        self.wrapped.append(name)


def test_traced_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = NameCheckingTracer()
    layers.install(tracer)
    assert "spectrum.mu" in tracer.wrapped and "kernel.eval" in tracer.wrapped


def test_enumerate_spectrum_calls_mu_eigenvalue_per_profile(monkeypatch):
    # spectrum.enum_yield is enumerated entries / mu_eigenvalue calls, taken
    # whenever enumerate_spectrum ran: a batched enumeration that never calls
    # the module's mu_eigenvalue would divide by zero
    calls = []
    real = spectrum.mu_eigenvalue

    def counted(spec, profile, table):
        calls.append(profile)
        return real(spec, profile, table)

    monkeypatch.setattr(spectrum, "mu_eigenvalue", counted)
    spec = build_kernel([activation("exp"), activation("exp")], 2, 3)
    table = spectrum.lambda_table(spec.f1, 3, 6, spec.q_cap)
    entries = spectrum.enumerate_spectrum(spec, table, 6)
    assert len(calls) >= len(entries) > 0
    assert {e.profile for e in entries} <= set(calls)


def test_nystrom_and_rls_fit_get_their_gram_through_krr_gram(monkeypatch):
    # the tracer wraps krr.gram: a Gram built any other way would leave
    # kernel.gram_s and kernel.entries reading 0 on nystrom and
    # learning-curve. 40 samples keep both calls on the Gram route: this
    # kernel has 21 features, and 2 x 21 > 40
    calls = []
    real = krr.gram

    def counted(spec, xs):
        calls.append(len(xs))
        return real(spec, xs)

    monkeypatch.setattr(krr, "gram", counted)
    spec = build_kernel([activation("identity"), activation("square")], 2, 3)
    krr.nystrom_eigs(spec, 40, 3, seed=0)
    data = krr.Dataset(xs=sample_uniform_batch(40, 2, 3, 1), ys=np.ones(40))
    krr.rls_fit(spec, data, 1e-2)
    assert calls == [40, 40]


def test_reconstruct_evaluates_every_pair_in_one_eval_kernel_call(
        monkeypatch, tmp_path):
    # the tracer wraps cli.eval_kernel: the direct leg of reconstruct must
    # run inside that one call, or kernel.eval_s would miss its time
    calls = []
    real = cli.eval_kernel

    def counted(spec, xs, ys):
        calls.append((np.shape(xs), np.shape(ys)))
        return real(spec, xs, ys)

    monkeypatch.setattr(cli, "eval_kernel", counted)
    cfg = tmp_path / "reconstruct.json"
    cfg.write_text(json.dumps({
        "kernel": {"layers": [{"activation": "exp"}, {"activation": "exp"}],
                   "n": 2, "d": 3},
        "k_max": 6, "pairs": 25, "tolerance": 1.0}))
    rc = cli.main(["reconstruct", "--config", str(cfg),
                   "--out", str(tmp_path / "out.csv")])
    assert rc == cli.EXIT_OK
    assert calls == [((25, 2, 3), (25, 2, 3))]
