"""Command line front end.

    atiyahlab run --config experiments.ini [--seed N] [--jobs K]
                  [--out DIR] [--format {csv,json,both}]

plus one subcommand per job type (``atiyahlab lambda --config ...`` etc.)
that runs only the config jobs of that type.  Jobs always run one after
another; --jobs is accepted for compatibility, must be at least 1 and does
not change the schedule or the output.  Output directory resolution:
--out flag, else $ATIYAHLAB_OUT, else the current directory.  Exit codes:
0 when nothing failed, 1 when any job FAILed or errored, 2 for configuration
problems.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import JOB_TYPES, load_config
from .errors import ConfigError
from .jobs import run_config
from .report import write_reports


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atiyahlab",
        description="Exact linear systems with fat points on the ruled "
                    "surface of the nonsplit extension over an elliptic curve.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run",) + JOB_TYPES:
        p = sub.add_parser(
            name,
            help=("run every job in the config" if name == "run"
                  else f"run only the '{name}' jobs of the config"))
        p.add_argument("--config", required=True, help="INI experiment file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility (must be >= 1); "
                            "jobs always run one after another")
        p.add_argument("--out", default=None,
                       help="output directory (default $ATIYAHLAB_OUT or .)")
        p.add_argument("--format", choices=("csv", "json", "both"),
                       default="both", help="which reports to write")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
        if args.command != "run":
            config.jobs = [j for j in config.jobs if j.kind == args.command]
            if not config.jobs:
                raise ConfigError(
                    f"config has no job of type {args.command!r}")
        if args.jobs < 1:
            raise ConfigError("--jobs must be at least 1")
        rows = run_config(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out or os.environ.get("ATIYAHLAB_OUT") or "."
    paths = write_reports(config, rows, out_dir, fmt=args.format)

    failed = False
    for row in rows:
        line = f"[{row.status}] {row.ident} ({row.kind})"
        if row.error:
            line += f" — {row.error}"
        print(line)
        failed = failed or row.status in ("FAIL", "ERROR")
    for path in paths:
        print(f"wrote {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
