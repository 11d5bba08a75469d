"""Command-line entry point.

Every command reads a JSON config (validated against the published schemas),
derives all randomness from --seed (>= 0), and writes machine-readable output
whose header carries the config hash and tool version. --kmax and --tolerance
are the config keys k_max and tolerance, written into the config before it
is validated and hashed; a flag whose key the command's schema lacks is
refused by its name. Every command takes --threads (>= 1); only
learning-curve runs more than one. Exit codes: 0 success, 2 config
validation failure (a network or patch layout that does not fit, an
activation parameter its kind does not take, a negative --seed or a
--threads below 1 included), a series or table truncated too
short, an unwritable output or an array sized past what can be allocated,
3 numerical tolerance failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import math
import os
import sys

import numpy as np

from . import __version__, cnn
from .activations import ActivationSpec, activation
from .errors import (ConfigError, FitError, HarmonicaError, OutputError,
                     StructuralError, TruncationError)
from .image import (PatchConfig, extract_patches, grid_locations, load_image,
                    sample_uniform_batch)
from .kernel import KernelSpec, TruncationConfig, build_kernel, eval_kernel
from .krr import (Schedule, SourceTarget, closed_form_top_eigs,
                  learning_curve, nystrom_eigs)
from .schema import SCHEMAS, validate
from .spectrum import (SpectralExpansion, enumerate_spectrum, fit_decay,
                       lambda_table)

# the interpreter's built-in SHA-256, the same digest as hashlib's: hashlib
# loads OpenSSL (about 3.5 MiB resident) to hash a few hundred bytes
try:
    from _sha2 import sha256 as _sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

log = logging.getLogger("harmonica")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3


def _setup_logging() -> None:
    level = os.environ.get("HARMONICA_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def load_config(path: str, command: str, overrides: dict | None = None) -> dict:
    """The JSON config at ``path`` with ``overrides`` (top-level key: value)
    written over it, checked against ``command``'s schema."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    def refuse(name: str):  # Python's json accepts NaN and Infinity; JSON not
        raise ConfigError(f"{path}: non-finite number {name}")

    def finite(parse):  # 1e400 parses to inf with no constant
        def checked(literal: str):
            if not math.isfinite(float(literal)):
                refuse(literal)
            return parse(literal)
        return checked

    try:
        cfg = json.loads(text, parse_constant=refuse,
                         parse_float=finite(float), parse_int=finite(int))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    for key, value in (overrides or {}).items():
        if not math.isfinite(float(str(value))):  # as for a literal above
            raise ConfigError(f"{key}: non-finite number {value}")
        if isinstance(cfg, dict):  # any other document fails the schema
            cfg[key] = value
    errors = sorted(validate(cfg, SCHEMAS[command]), key=lambda e: e[0])
    if errors:
        at, message = errors[0]
        where = "$" + "".join(f".{p}" if isinstance(p, str) else f"[{p}]"
                              for p in at)
        raise ConfigError(f"{path}: {where}: {message}")
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return _sha256(blob.encode()).hexdigest()


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


@contextlib.contextmanager
def _atomic_open(path: str):
    """Text handle on a new file next to ``path`` that replaces ``path``
    when the block completes; on any exception the new file is removed and
    ``path`` is left as it was. A failed write raises OutputError."""
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        try:
            with open(tmp, "x", encoding="ascii", newline="\n") as fh:
                yield fh
            os.replace(tmp, path)
        except OSError as exc:
            raise OutputError(f"cannot write output {path}: {exc}") from exc
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path: str, command: str, cfg: dict, seed: int,
              columns: list, rows: list) -> None:
    lines = [f"# harmonica {__version__}",
             f"# command: {command}",
             f"# config_sha256: {config_hash(cfg)}",
             f"# seed: {seed}",
             "# columns: " + ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with _atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, command: str, cfg: dict, seed: int,
               payload: dict) -> None:
    doc = {"harmonica": __version__, "command": command,
           "config_sha256": config_hash(cfg), "seed": seed}
    doc.update(payload)
    with _atomic_open(path) as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _activation_from(doc: dict) -> ActivationSpec:
    try:
        return activation(doc["activation"], coeffs=doc.get("coeffs"),
                          ratio=doc.get("ratio"))
    except ValueError as exc:
        raise ConfigError(f"activation {doc['activation']!r}: {exc}") from exc


def kernel_from_config(doc: dict) -> KernelSpec:
    trunc = TruncationConfig.from_dict(doc.get("truncation", {}))
    acts = [_activation_from(a) for a in doc["layers"]]
    return build_kernel(acts, int(doc["n"]), int(doc["d"]), trunc)


def _table_for(spec: KernelSpec, k_max: int):
    return lambda_table(spec.f1, spec.d, k_max, spec.q_cap,
                        s_tol=spec.trunc.s_tol)


def cmd_spectrum(cfg: dict, out: str, seed: int, args) -> int:
    spec = kernel_from_config(cfg["kernel"])
    k_max = cfg.get("k_max", spec.trunc.k_max)
    table = _table_for(spec, k_max)
    entries = enumerate_spectrum(spec, table, k_max)
    rows = [(rank + 1, e.mu, e.multiplicity,
             ";".join(str(k) for k in e.profile))
            for rank, e in enumerate(entries)]
    write_csv(out, "spectrum", cfg, seed,
              ["rank", "mu", "multiplicity", "profile"], rows)
    summary = {
        "kappa": table.kappa,
        "entries": int(sum(e.multiplicity for e in entries)),
        "distinct_profiles": len(entries),
        "max_interaction_order": max(
            (sum(1 for k in e.profile if k) for e in entries), default=0),
        "d_star": spec.d_star,
    }
    try:
        lo, hi = cfg.get("fit_rank_range", (1, 10 ** 9))
        fit = fit_decay(entries, m_min=lo, m_max=hi)
        summary.update({"p": fit["exponent_p"], "gamma": fit["gamma"],
                        "goodness": fit["goodness"],
                        "counting_slope": _finite_or_none(fit["counting_slope"])})
    except FitError as exc:
        log.info("decay fit skipped: %s", exc)
        summary.update({"p": None, "gamma": None, "goodness": None,
                        "counting_slope": None})
    write_json(_json_path(out), "spectrum", cfg, seed, summary)
    return EXIT_OK


def _finite_or_none(v: float):
    return float(v) if np.isfinite(v) else None


def _json_path(out: str) -> str:
    root, ext = os.path.splitext(out)
    return root + ".json" if ext != ".json" else root + "_summary.json"


def cmd_reconstruct(cfg: dict, out: str, seed: int, args) -> int:
    spec = kernel_from_config(cfg["kernel"])
    k_max = cfg.get("k_max", spec.trunc.k_max)
    tol = cfg.get("tolerance", 1e-5)
    pairs = int(cfg.get("pairs", 100))
    table = _table_for(spec, k_max)
    expansion = SpectralExpansion(spec, table, k_max)
    xs = sample_uniform_batch(pairs, spec.n, spec.d, (seed, 0))
    ys = sample_uniform_batch(pairs, spec.n, spec.d, (seed, 1))
    spectral = expansion.reconstruct(xs, ys)
    direct = eval_kernel(spec, xs, ys)
    rows = [(i, k, s, abs(k - s)) for i, (k, s)
            in enumerate(zip(direct.tolist(), spectral.tolist()))]
    # nonnegative series: |K| <= K(x, x), so a zero diagonal means K == 0
    # and the error is measured absolutely
    scale = spec.diag_value() or 1.0
    worst = max(row[3] for row in rows) / scale
    write_csv(out, "reconstruct", cfg, seed,
              ["pair_id", "direct", "spectral", "abs_err"], rows)
    if not worst <= tol:  # a nan error fails too
        log.error("max relative reconstruction error %.3e > %.1e", worst, tol)
        return EXIT_TOLERANCE
    return EXIT_OK


def _network_from(cfg_net: dict, n: int, d: int, seed) -> tuple:
    acts = [_activation_from(a) for a in cfg_net["activations"]]
    params = cnn.random_params(
        n, d, cfg_net["filters"], cfg_net.get("patch_sizes", ()), seed=seed,
        boundary=cfg_net.get("boundary", "circular"),
        pooling=cfg_net.get("pooling", "identity"))
    scale = cfg_net.get("weight_scale")
    if scale is not None:
        try:
            params = dataclasses.replace(params,
                                         w_out=params.w_out * float(scale))
        except ValueError as exc:  # the scaled weights overflow
            raise ConfigError(f"network weight_scale {scale!r}: {exc}") from exc
    if len(acts) != params.num_layers:
        raise ConfigError("network activations must match filter count")
    return params, acts


def _target_from(cfg: dict, spec: KernelSpec, seed):
    doc = cfg["target"]
    kind = doc["type"]
    if kind == "zero":
        return lambda xs: np.zeros(len(xs))
    if kind == "network":
        if "network" not in doc:
            raise ConfigError("target: type network needs a network")
        params, acts = _network_from(doc["network"], spec.n, spec.d, (seed, 7))
        return lambda xs: cnn.forward(params, acts, xs)
    profiles = [(tuple(p["degrees"]), p.get("coeff", 1.0))
                for p in doc.get("profiles", [{"degrees": [1], "coeff": 1.0}])]
    k_hi = max((max(p) for p, _ in profiles), default=1)
    table = _table_for(spec, max(k_hi, 1))
    anchor = sample_uniform_batch(1, spec.n, spec.d, (seed, 99))[0]
    try:
        return SourceTarget(spec, table, anchor, profiles,
                            beta=doc.get("beta", 1.0))
    except ValueError as exc:  # zero eigenvalue, profile longer than n
        raise ConfigError(f"target: {exc}") from exc


def cmd_learning_curve(cfg: dict, out: str, seed: int, args) -> int:
    spec = kernel_from_config(cfg["kernel"])
    sched = Schedule(beta=float(cfg["schedule"]["beta"]),
                     mu_exp=float(cfg["schedule"].get("mu_exp", 0.0)))
    try:
        sched.check(spec.d, spec.d_star)
    except ValueError as exc:
        raise ConfigError(f"schedule: {exc}") from exc
    target = _target_from(cfg, spec, seed)
    table_rows = learning_curve(
        spec, target, sched, cfg["sizes"], int(cfg.get("test_size", 2000)),
        seed, threads=args.threads)
    rows = [(r["ell"], r["lambda"], r["train_mse"], r["test_mse"], seed)
            for r in table_rows]
    write_csv(out, "learning-curve", cfg, seed,
              ["ell", "lambda", "train_mse", "test_mse", "seed"], rows)
    return EXIT_OK


def cmd_gram_eig(cfg: dict, out: str, seed: int, args) -> int:
    spec = kernel_from_config(cfg["kernel"])
    k_max = cfg.get("k_max", spec.trunc.k_max)
    ell = int(cfg.get("ell", 2000))
    top_k = int(cfg.get("top_k", 10))
    if top_k > ell:
        raise ConfigError(f"top_k={top_k} exceeds the sample count ell={ell}")
    table = _table_for(spec, k_max)
    entries = enumerate_spectrum(spec, table, k_max)
    closed = closed_form_top_eigs(spec, table, entries, top_k)
    if closed.size < top_k:
        raise ConfigError(f"spectrum has only {closed.size} positive "
                          f"eigenvalues below k_max={k_max}; top_k too large")
    nys = nystrom_eigs(spec, ell, top_k, seed)
    rows = [(i + 1, nys[i], closed[i], abs(nys[i] - closed[i]) / closed[i])
            for i in range(top_k)]
    write_csv(out, "gram-eig", cfg, seed,
              ["rank", "nystrom", "closed_form", "rel_err"], rows)
    return EXIT_OK


def cmd_cnn_label(cfg: dict, out: str, seed: int, args) -> int:
    if "images" in cfg:
        doc = cfg["images"]
        r = int(doc["r"])
        rows = []
        for path in doc["paths"]:
            try:
                img = load_image(path)
            except (OSError, ValueError, StructuralError) as exc:
                raise ConfigError(f"cannot read image {path}: {exc}") from exc
            locs = doc.get("locations")
            if locs is None:
                locs = grid_locations(img.h, img.w, r, doc.get("stride"))
            try:  # no location given, or none of the stride grid fits
                pc = PatchConfig(r=r, locations=tuple(tuple(v) for v in locs))
            except ValueError as exc:
                raise ConfigError(f"image {path} ({img.h}x{img.w}), r={r}: "
                                  f"{exc}") from exc
            rows.append(extract_patches(img, pc))
        if any(x.shape != rows[0].shape for x in rows):
            raise ConfigError("images yield inconsistent patch layouts")
        xs = np.stack(rows)
    else:
        if "n" not in cfg or "d" not in cfg:
            raise ConfigError("synthetic sampling needs n and d")
        xs = sample_uniform_batch(int(cfg.get("count", 100)), int(cfg["n"]),
                                  int(cfg["d"]), (seed, 3))
    params, acts = _network_from(cfg["network"], xs.shape[1], xs.shape[2],
                                 (seed, 7))
    labels = cnn.forward(params, acts, xs)
    if not np.all(np.isfinite(labels)):
        raise OverflowError("network labels leave double range")
    with _atomic_open(out) as fh:
        fh.write(json.dumps({"harmonica": __version__, "command": "cnn-label",
                             "config_sha256": config_hash(cfg), "seed": seed},
                            sort_keys=True) + "\n")
        for x, label in zip(xs, labels.tolist()):
            fh.write(json.dumps(
                {"patches": [[float(f"{v:.17g}") for v in row] for row in x],
                 "label": float(f"{label:.17g}")}, sort_keys=True) + "\n")
    return EXIT_OK


COMMANDS = {
    "spectrum": cmd_spectrum,
    "reconstruct": cmd_reconstruct,
    "learning-curve": cmd_learning_curve,
    "gram-eig": cmd_gram_eig,
    "cnn-label": cmd_cnn_label,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="harmonica",
        description="Multi-layer spherical kernels: spectra, reconstruction, "
                    "and regularized least-squares experiments.")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", required=True, help="JSON run configuration")
    ap.add_argument("--out", required=True, help="output file path")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--kmax", type=int, default=None,
                    help="the config key k_max: spectral degree cutoff")
    ap.add_argument("--tolerance", type=float, default=None,
                    help="the config key tolerance: reconstruct's threshold")
    return ap


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:  # numpy's generators take no negative seed
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        flags = {"k_max": ("--kmax", args.kmax),
                 "tolerance": ("--tolerance", args.tolerance)}
        keys = SCHEMAS[args.command]["properties"]
        for key, (flag, value) in flags.items():
            if value is not None and key not in keys:
                raise ConfigError(f"{flag}: {args.command} has no config "
                                  f"key {key}")
        cfg = load_config(args.config, args.command,
                          {k: v for k, (_, v) in flags.items()
                           if v is not None})
        # the commands refuse an overflow or a nan by their own finiteness
        # and tolerance checks, so numpy's RuntimeWarnings are only noise
        with np.errstate(all="ignore"):
            return COMMANDS[args.command](cfg, args.out, args.seed, args)
    # a size chain, layout or window the config asked for does not fit
    except (ConfigError, StructuralError, TruncationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HarmonicaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except OverflowError as exc:  # a series, table or tail left double range
        print(f"error: numerical overflow ({exc})", file=sys.stderr)
        return EXIT_TOLERANCE
    except MemoryError as exc:  # a Gram or sample batch the config sized
        print(f"config error: the run needs more memory than can be "
              f"allocated ({exc})", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
