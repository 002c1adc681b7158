"""Run the latmorse CLI with timing spans: the cli_cold worker of a traced run.

Usage: python3 perfbench/tracecli.py ARGS...   (same ARGS as latmorse.cli)

Behaves like ``python -m latmorse.cli ARGS`` and, as the last line of
stderr, writes MARKER followed by the JSON span summary of the process.
"""

from __future__ import annotations

import json
import sys

import tracing

MARKER = "perfbench-trace "


def main() -> int:
    from latmorse import cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return cli.main(sys.argv[1:])
    finally:
        sys.stderr.write(MARKER + json.dumps(tracer.take()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
