"""Command line front end: `qsd <method> ...` or `qsd --config file`.

Every subcommand's options come from the harness's parameter table and
arrive as raw text, so CLI runs and config-file runs share one code path
that reads each value once.  Exit codes: 0 on success, 2 for config
problems, 3 for method failures.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import ConfigInvalid, QsdError
from .harness import (
    COMMON, METHODS, REQUIRED, RUNNERS, TOP_KEYS, config_from_text, method_params, parse_config,
    run_config,
)


def _help(p) -> str:
    """The help line, then "required" or the default, then the allowed range."""
    if p.default is REQUIRED:
        default = "required"
    else:
        default = None if p.default is None or callable(p.default) else f"default {p.default}"
    return "; ".join(n for n in [p.help, default, p.bounds(p.cast is float)] if n)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing reads it and changes nothing."""
    parser = argparse.ArgumentParser(prog="qsd", description=__doc__)
    parser.add_argument("--config", help="run a qsdconfig v1 file instead of a subcommand")
    parser.add_argument("--out-dir", default="qsd-out")
    sub = parser.add_subparsers(dest="method")
    for method in METHODS:
        # the report budget is read from the [report] section of a config file only
        flags = COMMON if method == "report" else method_params(method)
        keys = [f"{q.key} = {_help(q)}" for q in method_params(method) if q not in flags]
        epilog = f"config-file keys: {'. '.join(keys)}." if keys else None
        p = sub.add_parser(method, help=RUNNERS[method].__doc__, epilog=epilog)
        for param in flags:
            p.add_argument(f"--{param.key}", dest=param.key, required=param.default is REQUIRED,
                           help=_help(param))
        p.add_argument("--out-dir", default="qsd-out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
        elif args.method in METHODS:
            given = {p.key: getattr(args, p.key, None) for p in method_params(args.method)}
            given = {key: raw for key, raw in given.items() if raw is not None}
            params = {key: raw for key, raw in given.items() if key not in TOP_KEYS}
            cfg = config_from_text(args.method, given, params)
        else:
            parser.print_usage(sys.stderr)
            return 2
    except (ConfigInvalid, OSError) as exc:
        print(f"qsd: {exc}", file=sys.stderr)
        return 2
    try:
        record = run_config(cfg, args.out_dir)
    except ConfigInvalid as exc:
        print(f"qsd: {exc}", file=sys.stderr)
        return 2
    except QsdError as exc:
        print(f"qsd: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for f in record.files:
        print(f)
    if cfg.method == "report":
        for method, rt in record.summary.get("runtimes_s", {}).items():
            print(f"# {method}: {rt:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
