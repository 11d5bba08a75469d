"""The set-up phase of one harmonica CLI invocation, then exit.

Usage: python3 perfbench/setup_probe.py <harmonica CLI arguments>

Interpreter start, ``import harmonica.cli``, argument parsing and schema
validation of the config (`load_config`): everything a CLI process does
before its first compute call. `run.py` times this process from spawn to
exit as ``setup_s``.
"""

import sys

from harmonica import cli

if __name__ == "__main__":
    args = cli.build_parser().parse_args(sys.argv[1:])
    cli.load_config(args.config, args.command)
