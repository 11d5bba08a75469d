"""The harmonica layers the traced run measures, and the metrics it reports.

`install` wraps the public functions each CLI command calls, at the place
where the caller looks them up: a name brought in with ``from .x import f``
is wrapped in the importing module (``harmonica.krr.gram``, not
``harmonica.kernel.gram``), and ``SpectralExpansion.reconstruct`` on its
class. The library itself is not edited.

`layer_metrics` turns the spans and counters of one traced process into the
per-layer metrics. ``*_s`` is inclusive span time, ``*_self_s`` excludes
child spans. Counts are taken from call arguments: ``kernel.entries``
counts every kernel value a call asked for. The metrics in COMPUTED are
models of work, not observations, and the report marks them: ``kernel.tensor_bytes``
is the size of the largest (a, b, n) float64 pair tensor a Gram call
implies, and ``taylor.coeff_macs`` is the multiply-adds of the left-fold
products ``power`` performs.
"""

from __future__ import annotations

import os
from collections import defaultdict

from spans import root_coverage, self_times

# name -> unit, in report order
PER_LAYER = {
    "cli.import_s": "s",
    "cli.load_config_s": "s",
    "cli.write_s": "s",
    "cli.out_bytes": "bytes",
    "taylor.build_s": "s",
    "taylor.power_s": "s",
    "taylor.power_calls": "count",
    "taylor.coeff_macs": "count",
    "harmonics.funk_hecke_s": "s",
    "harmonics.funk_hecke_calls": "count",
    "harmonics.zonal_s": "s",
    "harmonics.zonal_calls": "count",
    "spectrum.lambda_table_s": "s",
    "spectrum.lambda_table_self_s": "s",
    "spectrum.enumerate_s": "s",
    "spectrum.mu_s": "s",
    "spectrum.mu_calls": "count",
    "spectrum.enum_yield": "ratio",
    "spectrum.fit_decay_s": "s",
    "spectrum.reconstruct_s": "s",
    "spectrum.reconstruct_self_s": "s",
    "kernel.gram_s": "s",
    "kernel.cross_gram_s": "s",
    "kernel.eval_s": "s",
    "kernel.entries": "count",
    "kernel.entries_per_s": "1/s",
    "kernel.tensor_bytes": "bytes",
    "krr.eigvalsh_s": "s",
    "krr.fit_s": "s",
    "krr.predict_s": "s",
    "krr.cholesky_s": "s",
    "krr.cholesky_retries": "count",
    "krr.useful_entry_ratio": "ratio",
    "image.sample_s": "s",
    "image.points": "count",
    "cnn.forward_s": "s",
    "cnn.forward_calls": "count",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}

# computed from call arguments by a cost model rather than measured
COMPUTED = frozenset({"kernel.tensor_bytes", "taylor.coeff_macs"})

# counters that must repeat exactly from one traced run to the next
EXACT_COUNTS = ("kernel.entries", "taylor.power_calls", "taylor.coeff_macs",
                "spectrum.mu_calls", "harmonics.funk_hecke_calls",
                "cnn.forward_calls", "krr.cholesky_retries")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _out_bytes(counts, args, kwargs, result):
    counts["cli.out_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _power_macs(counts, args, kwargs, result):
    alpha = _arg(args, kwargs, 1, "alpha")
    order = _arg(args, kwargs, 2, "order")
    # power() returns alpha <= 1 without a product
    if alpha >= 2:
        counts["taylor.coeff_macs"] += alpha * (order + 1) * (order + 2) // 2


def _pair_entries(counts, a: int, b: int, n: int) -> None:
    counts["kernel.entries"] += a * b
    counts["kernel.tensor_bytes"] = max(counts["kernel.tensor_bytes"],
                                        a * b * n * 8)


def _gram_entries(counts, args, kwargs, result):
    spec, xs = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "xs")
    _pair_entries(counts, len(xs), len(xs), spec.n)


def _cross_entries(counts, args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    _pair_entries(counts, len(_arg(args, kwargs, 1, "xs")),
                  len(_arg(args, kwargs, 2, "ys")), spec.n)


def _eval_entry(counts, args, kwargs, result):
    counts["kernel.entries"] += 1


def _sampled(counts, args, kwargs, result):
    counts["image.points"] += _arg(args, kwargs, 0, "count")


def _enumerated(counts, args, kwargs, result):
    counts["spectrum.enum_entries"] += len(result)


def install(tracer) -> None:
    """Wrap every measured harmonica function; call once, before main()."""
    import harmonica.cli as cli
    import harmonica.cnn as cnn
    import harmonica.krr as krr
    import harmonica.spectrum as spectrum

    w = tracer.wrap
    w(cli, "main", "cli.main")
    w(cli, "load_config", "cli.load_config")
    w(cli, "write_csv", "cli.write", _out_bytes)
    w(cli, "write_json", "cli.write", _out_bytes)
    w(cli, "kernel_from_config", "taylor.build")
    w(spectrum, "power", "taylor.power", _power_macs)
    w(spectrum, "funk_hecke_eigenvalue", "harmonics.funk_hecke")
    w(spectrum, "zonal_poly_table", "harmonics.zonal")
    w(krr, "zonal_poly_table", "harmonics.zonal")
    w(cli, "lambda_table", "spectrum.lambda_table")
    w(cli, "enumerate_spectrum", "spectrum.enumerate", _enumerated)
    w(spectrum, "mu_eigenvalue", "spectrum.mu")
    w(cli, "fit_decay", "spectrum.fit_decay")
    w(spectrum.SpectralExpansion, "reconstruct", "spectrum.reconstruct")
    w(krr, "gram", "kernel.gram", _gram_entries)
    w(krr, "cross_gram", "kernel.cross_gram", _cross_entries)
    w(cli, "eval_kernel", "kernel.eval", _eval_entry)
    w(krr, "eigvalsh", "krr.eigvalsh")
    w(krr, "rls_fit", "krr.fit")
    w(krr, "predict", "krr.predict")
    w(krr, "cho_factor", "krr.cho_factor")
    w(krr, "cho_solve", "krr.cho_solve")
    w(krr, "sample_uniform_batch", "image.sample", _sampled)
    w(cli, "sample_uniform_batch", "image.sample", _sampled)
    w(cnn, "forward", "cnn.forward")


def layer_metrics(spans, counts: dict, wall: float,
                  useful_entries: int | None) -> tuple[dict, float]:
    """Per-layer metrics of one traced process, except ``trace.overhead_s``.

    ``wall`` is the process's wall time as its parent measured it. Returns
    the metrics and the time the self times plus the untraced remainder
    account for. The untraced remainder is defined as ``wall`` minus the
    time the root spans cover, so the sum equals ``wall`` whenever the self
    times of each tree add up to its root's coverage: the sum checks the
    self-time accounting, not whether the spans cover the work.
    """
    selfs = self_times(spans)
    incl: dict = defaultdict(float)
    own: dict = defaultdict(float)
    for s, t in zip(spans, selfs):
        incl[s.name] += s.end - s.start
        own[s.name] += t
    c = defaultdict(int, counts)
    untraced = wall - root_coverage(spans)
    kernel_s = incl["kernel.gram"] + incl["kernel.cross_gram"] + incl["kernel.eval"]
    m = {
        "cli.import_s": incl["cli.import"],
        "cli.load_config_s": incl["cli.load_config"],
        "cli.write_s": incl["cli.write"],
        "cli.out_bytes": c["cli.out_bytes"],
        "taylor.build_s": incl["taylor.build"],
        "taylor.power_s": incl["taylor.power"],
        "taylor.power_calls": c["taylor.power.calls"],
        "taylor.coeff_macs": c["taylor.coeff_macs"],
        "harmonics.funk_hecke_s": incl["harmonics.funk_hecke"],
        "harmonics.funk_hecke_calls": c["harmonics.funk_hecke.calls"],
        "harmonics.zonal_s": incl["harmonics.zonal"],
        "harmonics.zonal_calls": c["harmonics.zonal.calls"],
        "spectrum.lambda_table_s": incl["spectrum.lambda_table"],
        "spectrum.lambda_table_self_s": own["spectrum.lambda_table"],
        "spectrum.enumerate_s": incl["spectrum.enumerate"],
        "spectrum.mu_s": incl["spectrum.mu"],
        "spectrum.mu_calls": c["spectrum.mu.calls"],
        "spectrum.enum_yield": (c["spectrum.enum_entries"] / c["spectrum.mu.calls"]
                                if c["spectrum.enumerate.calls"] else 0.0),
        "spectrum.fit_decay_s": incl["spectrum.fit_decay"],
        "spectrum.reconstruct_s": incl["spectrum.reconstruct"],
        "spectrum.reconstruct_self_s": own["spectrum.reconstruct"],
        "kernel.gram_s": incl["kernel.gram"],
        "kernel.cross_gram_s": incl["kernel.cross_gram"],
        "kernel.eval_s": incl["kernel.eval"],
        "kernel.entries": c["kernel.entries"],
        "kernel.entries_per_s": c["kernel.entries"] / kernel_s if kernel_s else 0.0,
        "kernel.tensor_bytes": c["kernel.tensor_bytes"],
        "krr.eigvalsh_s": incl["krr.eigvalsh"],
        "krr.fit_s": incl["krr.fit"],
        "krr.predict_s": incl["krr.predict"],
        "krr.cholesky_s": incl["krr.cho_factor"] + incl["krr.cho_solve"],
        "krr.cholesky_retries": c["krr.cho_factor.calls"] - c["krr.fit.calls"],
        "krr.useful_entry_ratio": (useful_entries / c["kernel.entries"]
                                   if useful_entries and c["kernel.entries"] else 0.0),
        "image.sample_s": incl["image.sample"],
        "image.points": c["image.points"],
        "cnn.forward_s": incl["cnn.forward"],
        "cnn.forward_calls": c["cnn.forward.calls"],
        "trace.wall_s": wall,
        "trace.untraced_s": untraced,
    }
    return m, sum(selfs) + untraced
