"""Run one ``repro`` CLI command in this process with every layer traced.

Usage: ``python perfbench/trace_child.py <trace.json> <repro CLI args...>``

The command's stdout is the CLI's own; the per-layer metrics of
:class:`tracing.Tracer` are written to ``<trace.json>``.  The exit code
is the CLI's.
"""

from __future__ import annotations

import json
import sys

from tracing import Tracer, install


def main(argv: list) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    status = cli_main(cli_args)
    sys.stdout.flush()
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.metrics(), handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
