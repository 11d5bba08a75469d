"""End-to-end and per-layer benchmark of four heavy harmonica CLI paths.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: spectrum-decay, nystrom, learning-curve, mercer-reconstruct (see
workloads.py); ``--workload all`` runs the four in turn. Every sample is one
real CLI process, run from the sources in ``src/`` with ``--threads 1`` and
OPENBLAS/OMP/MKL_NUM_THREADS=1 set in that process's environment only.
The loop is closed with one client: the next process starts when the
previous one has exited, until S seconds have passed. Each process writes
into a fresh directory that holds no config, and its outputs are checked
(workloads.py); a nonzero exit or a failed check counts as a failure.

--trace 0 runs CLI samples, each followed by one set-up probe until
SETUP_PROBES probes are done, and starts no sample that the previous one
says would end after S seconds (but always runs MIN_SAMPLES). It reports:
  wall_s       spawn to exit of one CLI process
  cpu_s        user + sys CPU time of that process (wait4)
  setup_s      spawn to exit of setup_probe.py: interpreter start, import
               of harmonica.cli, argument parsing and load_config, i.e. what
               a CLI process does before its first compute call
  peak_rss_mb  peak resident memory of the CLI process
The printed report gives each with its median, the highest percentile
that has at least ten samples above it, and its sample count. The result
line carries the lower quartile of wall_s and cpu_s and the median of
setup_s and peak_rss_mb. On a shared host the core runs, for tens of
seconds at a time, about a quarter slower while other tenants load it
(cpu time too, because the work itself runs slower), and such episodes
only ever add time. The lower quartile stays with the program's own cost
as long as a quarter of a run's samples miss the episodes, where the
median flips with the majority of them. setup_s always has its tail; the
other metrics have it only when the run fits eleven CLI samples, which at
the run length set in BENCHMARK.json only mercer-reconstruct does.
fail_frac (failed / attempted) is printed with them and carried by the
``failed`` and ``attempted`` fields of the result.

--trace 1 alternates untraced CLI processes with traced ones, at least
two of each, until the next pair would end after S seconds. A traced
process runs the same command in-process through traced_cli.py, which
wraps the library's public functions in spans (layers.py). The run
reports the per-layer metrics as medians over the traced processes,
checks that the count metrics repeat exactly and that every traced
process writes output byte-identical to the untraced one before it, and
reports the tracing overhead as the median traced minus the median
untraced wall time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from layers import COMPUTED, EXACT_COUNTS, PER_LAYER, layer_metrics
from spans import spans_from_json
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
SETUP_PROBES = 11  # the fewest samples that give a tail percentile
MIN_SAMPLES = 3  # CLI samples per run, even past the deadline
MIN_TRACED = 2
LOWER_QUARTILE = ("wall_s", "cpu_s")  # the result carries these, not medians

ENV_SCRIPT = """
import json, os, platform, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""


@dataclass(frozen=True)
class Proc:
    code: int
    wall: float
    cpu: float
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env.pop("HARMONICA_LOG", None)
    return env


def run_process(argv: list, env: dict, log_path: Path) -> Proc:
    """Run one process to completion; time it from spawn to exit."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


def environment(env: dict) -> dict:
    """Machine and library versions as the CLI processes see them."""
    res = subprocess.run([sys.executable, "-c", ENV_SCRIPT], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    record = json.loads(res.stdout)
    record.update(nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
                  threads={v: env[v] for v in THREAD_VARS})
    return record


def log_tail(path: Path) -> str:
    """The last three lines of a process log, on one line."""
    text = path.read_text(encoding="utf-8", errors="replace").strip()
    return " | ".join(text.splitlines()[-3:])


def outcome(w: Workload, p: Proc, outdir: Path, seed: int, log: Path) -> list:
    if p.code != 0:
        return [f"exit code {p.code}: {log_tail(log)}"]
    return w.check(outdir, seed)


def tail_percentile(values: list):
    """(percentile, value) of the highest order statistic with at least ten
    samples above it, or None when there are fewer than eleven samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def lower_quartile(values: list) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def describe(name: str, values: list, unit: str) -> str:
    tail = tail_percentile(values)
    tail_text = (f"p{tail[0]:.0f} {tail[1]:.6g} {unit}" if tail
                 else "tail n/a (< 11 samples)")
    quartile = (f"  p25 {lower_quartile(values):.6g} {unit} (result)"
                if name in LOWER_QUARTILE else "")
    return (f"  {name:<12} median {statistics.median(values):.6g} {unit}"
            f"{quartile}  {tail_text}  n={len(values)}")


def cli_argv(w: Workload, seed: int, outdir: Path) -> list:
    return [sys.executable, "-m", "harmonica.cli", *w.cli_args(seed, outdir)]


def measure(w: Workload, seed: int, seconds: float, work: Path, env: dict):
    """Untraced run: CLI samples, each followed by a set-up probe while the
    probes are short of SETUP_PROBES, until the next sample would end after
    the deadline; then the probes still missing."""
    probe = [sys.executable, str(HERE / "setup_probe.py"),
             *w.cli_args(seed, work / "probe")]

    def setup_probe() -> float:
        p = run_process(probe, env, work / "probe.log")
        if p.code != 0:
            raise SystemExit(f"setup probe failed: {log_tail(work / 'probe.log')}")
        return p.wall

    setup_probe()  # the first start in a fresh checkout compiles bytecode
    deadline = time.perf_counter() + seconds
    samples, setup, failures = [], [], []
    step = 0.0  # how long the last sample and its probe took
    while (len(samples) < MIN_SAMPLES
           or time.perf_counter() + step < deadline):
        t0 = time.perf_counter()
        i = len(samples)
        outdir, log = work / f"run-{i}", work / f"run-{i}.log"
        outdir.mkdir()
        p = run_process(cli_argv(w, seed, outdir), env, log)
        samples.append(p)
        problems = outcome(w, p, outdir, seed, log)
        if problems:
            failures.append((f"run-{i}", problems))
        if len(setup) < SETUP_PROBES:
            setup.append(setup_probe())
        step = time.perf_counter() - t0
    setup += [setup_probe() for _ in range(SETUP_PROBES - len(setup))]
    series = {"wall_s": [p.wall for p in samples],
              "cpu_s": [p.cpu for p in samples],
              "setup_s": setup,
              "peak_rss_mb": [p.rss_mb for p in samples]}
    for name, unit in END_TO_END.items():
        print(describe(name, series[name], unit))
    print("  samples wall_s " + " ".join(f"{p.wall:.4f}" for p in samples))
    print("  samples setup_s " + " ".join(f"{v:.4f}" for v in setup))
    metrics = {name: {"value": (lower_quartile if name in LOWER_QUARTILE
                                else statistics.median)(series[name]),
                      "unit": unit}
               for name, unit in END_TO_END.items()}
    return metrics, len(samples), failures


def traced_run(w: Workload, seed: int, i: int, work: Path, env: dict,
               untraced: Path | None):
    """One traced CLI process: its metrics (or None) and its problems.

    ``untraced`` holds the outputs of a good untraced run with the same
    seed, which the traced outputs must match byte for byte.
    """
    outdir, log = work / f"traced-{i}", work / f"traced-{i}.log"
    spans_path = work / f"spans-{i}.json"
    outdir.mkdir()
    argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path),
            *w.cli_args(seed, outdir)]
    p = run_process(argv, env, log)
    problems = outcome(w, p, outdir, seed, log)
    if not problems and untraced is not None:
        problems = [f"{n} differs from the untraced output" for n in w.outputs
                    if (outdir / n).read_bytes() != (untraced / n).read_bytes()]
    if not spans_path.is_file():
        return None, problems + ["traced run wrote no spans"]
    doc = json.loads(spans_path.read_text(encoding="ascii"))
    m, accounted = layer_metrics(spans_from_json(doc), doc["counts"], p.wall,
                                 w.useful_entries())
    if abs(accounted - p.wall) > 1e-6 * p.wall:
        problems.append(f"self times + untraced {accounted:.6f} s "
                        f"!= traced wall {p.wall:.6f} s")
    print(f"  traced run {i}: self times {accounted - m['trace.untraced_s']:.4f} s"
          f" + untraced {m['trace.untraced_s']:.4f} s = traced wall {p.wall:.4f} s")
    return m, problems


def measure_traced(w: Workload, seed: int, seconds: float, work: Path, env: dict):
    """Pairs of one untraced and one traced process until the next pair
    would end after the deadline, at least MIN_TRACED pairs; per-layer
    metrics are medians over traced runs."""
    deadline = time.perf_counter() + seconds
    untraced_walls, runs, failures = [], [], []
    i = 0
    step = 0.0  # how long the last pair took
    while i < MIN_TRACED or time.perf_counter() + step < deadline:
        t0 = time.perf_counter()
        outdir, log = work / f"untraced-{i}", work / f"untraced-{i}.log"
        outdir.mkdir()
        p = run_process(cli_argv(w, seed, outdir), env, log)
        untraced_walls.append(p.wall)
        problems = outcome(w, p, outdir, seed, log)
        if problems:
            failures.append((f"untraced-{i}", problems))
        m, problems = traced_run(w, seed, i, work, env,
                                 None if problems else outdir)
        if m is not None:
            if runs:
                problems += [f"count {k} = {m[k]}, first traced run {runs[0][k]}"
                             for k in EXACT_COUNTS if m[k] != runs[0][k]]
            runs.append(m)
        if problems:
            failures.append((f"traced-{i}", problems))
        i += 1
        step = time.perf_counter() - t0
    metrics = {}
    for name, unit in PER_LAYER.items():
        if not runs:
            value = 0.0
        elif name == "trace.overhead_s":
            value = (statistics.median(r["trace.wall_s"] for r in runs)
                     - statistics.median(untraced_walls))
        elif unit in ("s", "1/s"):
            value = statistics.median(r[name] for r in runs)
        else:
            value = runs[0][name]  # counts and ratios of counts repeat exactly
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<28} {value:.6g} {unit}"
              + ("  (computed)" if name in COMPUTED else ""))
    print("  untraced wall_s " + " ".join(f"{v:.4f}" for v in untraced_walls))
    return metrics, 2 * i, failures


def run_workload(w: Workload, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload, print its report and return its result."""
    env = child_env()
    work = WORK / f"{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        print(f"workload {w.name}  seed {seed}  seconds {seconds:g}  trace {trace}")
        print("env " + json.dumps(environment(env), sort_keys=True))
        run = measure_traced if trace else measure
        metrics, attempted, failures = run(w, seed, seconds, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    for where, problems in failures:
        for problem in problems:
            print(f"  FAILED {where}: {problem}")
    print(f"  fail_frac    {len(failures) / attempted:.6g} ratio  "
          f"({len(failures)} failed / {attempted} attempted)")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="one workload, or all four in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still kills and reaps the process it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "harmonica" / "cli.py").is_file():
        print(f"no harmonica sources under {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  args.trace)
               for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        # metrics keyed workload/metric; for reading, not for the comparison
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}/{k}": v for n, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
