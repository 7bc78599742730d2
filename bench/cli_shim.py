"""Traced stand-in for the ``atiyahlab`` console command.

    python3 bench/cli_shim.py SPANS_FILE SPAWN_TIME <atiyahlab arguments...>

Imports the CLI, installs the same span wrappers as the in-process
workloads, runs ``atiyahlab.cli.main`` on the remaining arguments and exits
with its code.  SPAWN_TIME is the parent's ``spans.clock()`` just before
the child was started, so the span ``cli.proc_start`` covers interpreter
start plus the CLI import.  The spans are written to SPANS_FILE at exit.
"""

from __future__ import annotations

import sys

import spans


def main(argv) -> int:
    spans_file, spawned, cli_args = argv[0], float(argv[1]), argv[2:]
    import atiyahlab.cli

    rec = spans.Recorder(run="cli")
    rec.add("cli.proc_start", spawned, spans.clock())
    import instrument

    with instrument.installed(rec):
        with rec.span("cli.main"):
            code = atiyahlab.cli.main(cli_args)
    rec.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
