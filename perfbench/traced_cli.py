"""Run one harmonica CLI command in this process with layer spans installed.

Usage: python3 perfbench/traced_cli.py SPANS.json <harmonica CLI arguments>

Writes the spans and counters to SPANS.json and exits with the CLI's own
exit code. `run.py --trace 1` starts it with the same environment and
arguments as the untraced CLI processes.
"""

import json
import sys

from layers import install
from spans import Tracer


def main() -> int:
    spans_path, cli_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import harmonica.cli
    install(tracer)
    try:
        return harmonica.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="ascii") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main())
