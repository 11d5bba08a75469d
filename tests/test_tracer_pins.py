"""The library names the benchmark's tracer wraps must stay in place.

``perfbench/layers.py`` ``install()`` looks each measured function up with
``getattr`` on the module (or class) where its caller finds it, so deleting
or moving one of those names breaks the traced benchmark run. These tests
run ``install()`` with a tracer that only checks each name, and pin the
per-profile ``mu_eigenvalue`` calls that the tracer's ``spectrum.enum_yield``
divides by.
"""

import importlib
from pathlib import Path

from harmonica import spectrum
from harmonica.activations import activation
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
