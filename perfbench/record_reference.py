"""Record the reference outputs that the benchmark's checks compare against.

Usage, from the repository root:

    python3 perfbench/record_reference.py

Runs each workload's CLI command once for each of SEEDS and
stores its outputs under perfbench/reference/<workload>/seed-<n>/. Record
only from a commit whose outputs are known to be right.
"""

import shutil
import sys

from run import cli_argv, child_env, log_tail, run_process
from workloads import REFERENCE, WORKLOADS

SEEDS = (0, 1)  # the seeds the checks and the harness tests rely on


def main() -> int:
    env = child_env()
    for w in WORKLOADS.values():
        for seed in SEEDS:
            dest = REFERENCE / w.name / f"seed-{seed}"
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir(parents=True)
            log = dest.parent / "record.log"
            p = run_process(cli_argv(w, seed, dest), env, log)
            if p.code != 0:
                print(f"{w.name} seed {seed}: exit {p.code}: {log_tail(log)}")
                return 1
            log.unlink()
            print(f"{w.name} seed {seed}: {p.wall:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
