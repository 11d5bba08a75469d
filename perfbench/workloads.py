"""The four benchmark workloads and the checks on their outputs.

Each workload is one real ``harmonica`` CLI command on a fixed config from
``configs/``; only ``--seed`` varies. Its output is checked two ways:

* against the outputs recorded under ``reference/<workload>/seed-<n>/``
  when the seed has one (see `record_reference.py`);
* for any seed, against invariants the paper and the acceptance criteria
  fix for that config.

Why these four: spectrum-decay is dominated by ``lambda_table`` and its
Funk-Hecke kappa calibration and builds no Gram; nystrom is one symmetric
Gram plus ``eigvalsh`` with negligible spectrum work; learning-curve runs
the kernel layer as rectangular ``cross_gram`` blocks, train Grams and
Cholesky solves, and is the only one that runs the CNN forward pass;
mercer-reconstruct builds no Gram and is the only one dominated by
``taylor.power`` and the zonal Mercer sum. Each Gram or spectrum change
thus has a workload that exercises it and one that bypasses it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import CsvOutput, close, compare_csv, compare_json, read_csv

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
REFERENCE = HERE / "reference"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    outputs: tuple  # file names; the first is the --out path
    float_cols: dict  # CSV float column -> absolute tolerance
    invariants: Callable[["Workload", Path, int], list]

    @property
    def config_path(self) -> Path:
        return CONFIGS / f"{self.name}.json"

    def config(self) -> dict:
        return json.loads(self.config_path.read_text(encoding="ascii"))

    def cli_args(self, seed: int, outdir: Path) -> list:
        return [self.command, "--config", str(self.config_path),
                "--out", str(outdir / self.outputs[0]),
                "--seed", str(seed), "--threads", "1"]

    def useful_entries(self) -> int | None:
        """Kernel values the command needs at least: one Gram per training
        set plus one test-by-train block, each built once."""
        cfg = self.config()
        if self.command == "gram-eig":
            return int(cfg["ell"]) ** 2
        if self.command == "learning-curve":
            sizes = [int(v) for v in cfg["sizes"]]
            return sum(v * v for v in sizes) + int(cfg["test_size"]) * sum(sizes)
        return None

    def check(self, outdir: Path, seed: int) -> list:
        """Problems with the outputs in ``outdir``; empty when all is well."""
        missing = [f for f in self.outputs if not (outdir / f).is_file()]
        if missing:
            return [f"missing output {f}" for f in missing]
        problems = []
        ref = REFERENCE / self.name / f"seed-{seed}"
        try:
            if ref.is_dir():
                for f in self.outputs:
                    if f.endswith(".json"):
                        problems += compare_json(outdir / f, ref / f)
                    else:
                        problems += compare_csv(outdir / f, ref / f,
                                                self.float_cols)
            problems += self.invariants(self, outdir, seed)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        return problems


def _common(out: CsvOutput, seed: int, rows: int) -> list:
    problems = []
    if out.header.get("seed") != str(seed):
        problems.append(f"header seed {out.header.get('seed')!r} != {seed}")
    if len(out.rows) != rows:
        problems.append(f"{len(out.rows)} rows, expected {rows}")
    return problems


def _finite(values, what: str) -> list:
    return [] if all(math.isfinite(v) for v in values) else [f"non-finite {what}"]


def _spectrum_decay(w: Workload, outdir: Path, seed: int) -> list:
    # d = 2, n = 1, identity outer layer: every degree k >= 1 has
    # multiplicity 2, so 1201 profiles carry 2401 eigenvalues, d* = 1 and
    # the counting slope tends to (d - 1) d* = 1
    out = read_csv(outdir / w.outputs[0])
    problems = _common(out, seed, 1201)
    mu = out.floats("mu")
    problems += _finite(mu, "mu")
    if any(v <= 0.0 for v in mu) or any(b > a for a, b in zip(mu, mu[1:])):
        problems.append("mu not positive and non-increasing")
    if sum(int(v) for v in out.column("multiplicity")) != 2401:
        problems.append("multiplicities do not sum to 2401")
    doc = json.loads((outdir / w.outputs[1]).read_text(encoding="ascii"))
    want = {"entries": 2401, "distinct_profiles": 1201,
            "max_interaction_order": 1, "seed": seed}
    problems += [f"summary {k} = {doc.get(k)!r}, expected {v!r}"
                 for k, v in want.items() if doc.get(k) != v]
    slope = doc.get("counting_slope")
    if slope is None or abs(slope - 1.0) > 0.25:
        problems.append(f"counting slope {slope!r} not within 25% of 1")
    if abs(doc.get("kappa", 0.0) - 2.0) > 1e-9:
        problems.append(f"kappa {doc.get('kappa')!r} is not 2")
    return problems


# closed-form top-10 multiplets of identity -> square, n = 2, d = 3:
# profile (0, 0) at rank 1 and profile (1, 1), multiplicity 3 * 3, at ranks 2-10
NYSTROM_MULTIPLETS = ((0, 1), (1, 10))


def _nystrom(w: Workload, outdir: Path, seed: int) -> list:
    out = read_csv(outdir / w.outputs[0])
    problems = _common(out, seed, 10)
    nys, closed = out.floats("nystrom"), out.floats("closed_form")
    problems += _finite(nys + closed + out.floats("rel_err"), "value")
    # the closed form does not depend on the seed
    ref = read_csv(REFERENCE / w.name / "seed-0" / w.outputs[0])
    if not all(close(a, b) for a, b in zip(closed, ref.floats("closed_form"))):
        problems.append("closed_form differs from the seed-0 reference")
    if problems:
        return problems
    for lo, hi in NYSTROM_MULTIPLETS:
        mean = sum(nys[lo:hi]) / (hi - lo)
        if abs(mean - closed[lo]) > 0.05 * closed[lo]:
            problems.append(f"ranks {lo + 1}-{hi}: Nystrom mean {mean:.6g} "
                            f"not within 5% of {closed[lo]:.6g}")
    return problems


def _learning_curve(w: Workload, outdir: Path, seed: int) -> list:
    cfg = w.config()
    out = read_csv(outdir / w.outputs[0])
    problems = _common(out, seed, len(cfg["sizes"]))
    if [int(v) for v in out.column("ell")] != cfg["sizes"]:
        problems.append("ell column does not match the configured sizes")
    mses = out.floats("train_mse") + out.floats("test_mse")
    problems += _finite(mses, "MSE")
    if any(v < 0.0 for v in mses):
        problems.append("negative MSE")
    beta = cfg["schedule"]["beta"]
    for ell, lam in zip(cfg["sizes"], out.floats("lambda")):
        if not close(lam, ell ** (-1.0 / beta)):
            problems.append(f"lambda {lam!r} at ell={ell} is not ell^(-1/beta)")
    return problems


def _mercer_reconstruct(w: Workload, outdir: Path, seed: int) -> list:
    # the CLI itself exits 3 when the worst relative error exceeds 1e-5
    out = read_csv(outdir / w.outputs[0])
    problems = _common(out, seed, w.config()["pairs"])
    problems += _finite(out.floats("direct") + out.floats("spectral"), "value")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload("spectrum-decay", "spectrum", ("decay.csv", "decay.json"),
             {"mu": 0.0}, _spectrum_decay),
    Workload("nystrom", "gram-eig", ("nystrom.csv",),
             {"nystrom": 0.0, "closed_form": 0.0, "rel_err": 1e-12}, _nystrom),
    Workload("learning-curve", "learning-curve", ("curve.csv",),
             {"lambda": 0.0, "train_mse": 0.0, "test_mse": 0.0}, _learning_curve),
    # abs_err is a difference of two values near 10: tolerate the 1e-13
    # absolute shift an exact kappa gives the spectral column
    Workload("mercer-reconstruct", "reconstruct", ("reconstruct.csv",),
             {"direct": 0.0, "spectral": 0.0, "abs_err": 1e-11},
             _mercer_reconstruct),
)}
