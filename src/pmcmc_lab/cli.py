"""Command-line entry point.

Usage::

    pmcmc-lab <subcommand> --config cfg.json [--seed S] [--out DIR]

The subcommands, and the experiment kinds each one runs, are read from
``harness.KINDS``.

Exit codes: 0 on success, 1 on usage or configuration errors, 2 when a
inequality-check suite reports a violation (named on stderr).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import cache

from .errors import AssertionFailure, ConfigError, PmcmcLabError
from .harness import KINDS, load_config, run_experiment


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args leaves it unchanged, and
    building it costs more than a short subcommand's parse."""
    parser = argparse.ArgumentParser(prog="pmcmc-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in dict.fromkeys(command for command, _ in KINDS.values()):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        allowed = tuple(kind for kind, (command, _) in KINDS.items() if command == args.command)
        if cfg.kind not in allowed:
            raise ConfigError(
                f"kind {cfg.kind!r} is not valid for subcommand {args.command!r}"
                f" (expected one of {allowed})"
            )
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        out = run_experiment(cfg, out_dir=args.out)
    except AssertionFailure as exc:
        print(f"pmcmc-lab: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, PmcmcLabError) as exc:
        print(f"pmcmc-lab: {exc}", file=sys.stderr)
        return 1
    if cfg.kind == "bounds":
        print((out / "bounds.csv").read_text(), end="")
    print(out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
