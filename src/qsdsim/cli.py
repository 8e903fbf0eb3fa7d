"""Command line front end: `qsd <method> ...` or `qsd --config file`.

Every subcommand assembles an ExperimentConfig and hands it to the harness,
so CLI runs and config-file runs share one code path.  Exit codes: 0 on
success, 2 for config problems, 3 for method failures.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigInvalid, QsdError
from .harness import ExperimentConfig, METHODS, parse_config, run_config


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--model", required=True, help="point | two-state | bd:p,q[,K] | gw:b,d | file:PATH")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="qsd-out")
    p.add_argument("--replicas", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsd", description=__doc__)
    parser.add_argument("--config", help="run a qsdconfig v1 file instead of a subcommand")
    parser.add_argument("--out-dir", default="qsd-out")
    sub = parser.add_subparsers(dest="method")

    p = sub.add_parser("oracle", help="principal-eigenvector QSD on a finite window")
    _add_common(p)
    p.add_argument("--trunc", type=int)
    p.add_argument(
        "--tol", type=float, default=1e-12,
        help="power-iteration stop tolerance; windows that are two-way paths "
        "(every builtin chain) are solved directly and ignore it",
    )

    p = sub.add_parser("conditioned", help="the law conditioned on survival, by uniformization")
    _add_common(p)
    p.add_argument("--init", required=True, help="delta:x | uniform:a-b | x:m,y:m")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--dt", type=float, help="step at which the law is checked and recorded;"
                   " at most 0.1 over the window's largest total rate")
    p.add_argument("--trunc", type=int)
    p.add_argument("--grid", type=float)

    p = sub.add_parser("fv", help="Fleming-Viot particle run (stationary when --burnin > 0)")
    _add_common(p)
    p.add_argument("--particles", type=int, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--burnin", type=float, default=0.0)
    p.add_argument("--grid", type=float)
    p.add_argument("--init")
    p.add_argument("--trunc", type=int)

    p = sub.add_parser("phi", help="fixed-point iteration of the return map")
    _add_common(p)
    p.add_argument("--init", required=True)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("afp", help="history-renewal chain on the uniformized skeleton")
    _add_common(p)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--uniformization-rate", type=float)
    p.add_argument("--trunc", type=int)
    p.add_argument("--checkpoints", type=int, default=4)

    p = sub.add_parser("branch", help="supercritical branching profile estimator")
    _add_common(p)
    p.add_argument("--alpha", default="auto")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--cap", type=int, default=10**5)

    p = sub.add_parser("couple", help="coupled tagged-particle / limit-process runs")
    _add_common(p)
    p.add_argument("--particles", type=int, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--init")

    p = sub.add_parser("scan", help="fixed-time FV error against N with a rate fit")
    _add_common(p)
    p.add_argument("--particles", required=True, help="comma list, e.g. 50,200,800")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--state", type=int)
    p.add_argument("--trunc", type=int)

    p = sub.add_parser("report", help="cross-method comparison against the oracle")
    _add_common(p)
    return parser


_PARAM_KEYS = {
    "oracle": ("trunc", "tol"),
    "conditioned": ("init", "horizon", "dt", "trunc", "grid"),
    "fv": ("particles", "horizon", "burnin", "grid", "init", "trunc"),
    "phi": ("init", "iters", "tol"),
    "afp": ("steps", "start", "uniformization_rate", "trunc", "checkpoints"),
    "branch": ("alpha", "horizon", "cap"),
    "couple": ("particles", "horizon", "init"),
    "scan": ("particles", "horizon", "init", "state", "trunc"),
    "report": (),
}


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    params = {}
    for key in _PARAM_KEYS[args.method]:
        val = getattr(args, key, None)
        if val is not None:
            params[key.replace("_", "-")] = str(val)
    return ExperimentConfig(
        method=args.method,
        model=args.model,
        seed=args.seed,
        replicas=args.replicas,
        params=params,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
        elif args.method in METHODS:
            cfg = _config_from_args(args)
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
