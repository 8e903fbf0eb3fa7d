"""The benchmark's workloads: fixed rounds of `qsd` invocations and their output checks.

A round is a fixed list of ops; one op is one `qsd <subcommand> ...` call.
The runner appends ``--seed`` and ``--out-dir`` to each op's arguments.
Every op names a check that reads the files the op wrote and raises
:class:`CheckFailed` when they are wrong.  Tolerances on stochastic output
are loose on purpose: they catch a broken route, not sampling noise.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SQRT5 = math.sqrt(5.0)
T2_LAMBDA = (-3.0 + SQRT5) / 2.0
T2_NU = {1: (3.0 - SQRT5) / 2.0, 2: (SQRT5 - 1.0) / 2.0}
# van Doorn's minimal decay rate (sqrt q - sqrt p)^2 of the walk bd:1,2
BD12_THETA_STAR = (math.sqrt(2.0) - 1.0) ** 2
EXACT_TOL = 1e-9


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    check: Callable[[Path, dict], None]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _json(out: Path, name: str) -> dict:
    with open(out / name, encoding="utf-8") as fh:
        return json.load(fh)


def _rows(out: Path, name: str) -> list[dict]:
    with open(out / name, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _tv(a: dict[int, float], b: dict[int, float]) -> float:
    return 0.5 * sum(abs(a.get(x, 0.0) - b.get(x, 0.0)) for x in set(a) | set(b))


def _sums_to_one(rows: list[dict], keys: tuple[str, ...], what: str) -> None:
    totals: dict[tuple, float] = defaultdict(float)
    for row in rows:
        totals[tuple(row[k] for k in keys)] += float(row["mass"])
    _require(bool(totals), f"{what}: no rows")
    worst = max(abs(t - 1.0) for t in totals.values())
    _require(worst <= EXACT_TOL, f"{what}: a law sums to 1{worst:+.3g}")


# -- checks -------------------------------------------------------------------


def fv_stationary(tol: float):
    def check(out: Path, memo: dict) -> None:
        _sums_to_one(_rows(out, "fv.csv"), ("replica",), "fv.csv")
        tv = _json(out, "fv_summary.json")["mean_tv_to_reference"]
        _require(tv <= tol, f"stationary FV TV to the oracle {tv:.4g} > {tol}")

    return check


def fv_fixed(tol: float | None):
    """Fixed-time FV; ``tol=None`` when the run has no reference law."""

    def check(out: Path, memo: dict) -> None:
        _sums_to_one(_rows(out, "fv.csv"), ("replica", "t"), "fv.csv")
        summary = _json(out, "fv_summary.json")
        _require(summary["events"] > 0, "fixed-time FV reports no events")
        if tol is not None:
            tv = summary["mean_tv_to_reference"]
            _require(tv <= tol, f"fixed-time FV TV to the RK4 law {tv:.4g} > {tol}")

    return check


def afp(tol: float):
    def check(out: Path, memo: dict) -> None:
        rows = _rows(out, "afp.csv")
        tvs = [float(r["tv_to_oracle"]) for r in rows if r["tv_to_oracle"]]
        _require(bool(tvs), "afp.csv has no checkpoint TV")
        _require(tvs[-1] <= tol, f"AFP final TV to the oracle {tvs[-1]:.4g} > {tol}")
        _sums_to_one([r for r in rows if r["state"]], (), "afp estimate")

    return check


def branch_two_state(tol: float):
    def check(out: Path, memo: dict) -> None:
        data = _json(out, "branch.json")
        nu_hat = {int(x): m for x, m in data["nu_hat"].items()}
        tv = _tv(nu_hat, T2_NU)
        _require(tv <= tol, f"branching profile TV to the exact QSD {tv:.4g} > {tol}")
        _require(0.0 < data["survival_fraction"] <= 1.0, "survival fraction outside (0, 1]")

    return check


def couple(horizon: float):
    def check(out: Path, memo: dict) -> None:
        rows = _rows(out, "couple.csv")
        _require(bool(rows), "couple.csv has no replicas")
        for r in rows:
            psi, when = int(r["psi_final"]), r["divergence_time"]
            _require(psi in (0, 1), f"psi_final {psi} is not 0 or 1")
            _require((psi == 1) == bool(when), "psi_final disagrees with divergence_time")
            _require(not when or 0.0 < float(when) <= horizon, f"divergence at {when}")

    return check


def scan(tol: float):
    def check(out: Path, memo: dict) -> None:
        errors = [float(r["error"]) for r in _rows(out, "scan.csv")]
        _require(all(0.0 <= e <= tol for e in errors), f"scan error outside [0, {tol}]: {errors}")
        slope = _json(out, "scan_fit.json")["slope"]
        _require(math.isfinite(slope) and slope < 0.0, f"scan error does not fall with N: slope {slope}")

    return check


def _oracle_residual(data: dict) -> None:
    res = data["residual"]
    _require(res <= EXACT_TOL, f"oracle residual {res:.3g} > {EXACT_TOL}")


def oracle_two_state(out: Path, memo: dict) -> None:
    data = _json(out, "oracle.json")
    _oracle_residual(data)
    _require(abs(data["lambda"] - T2_LAMBDA) <= EXACT_TOL, f"two-state lambda {data['lambda']!r}")
    _require(abs(data["nu"]["1"] - T2_NU[1]) <= EXACT_TOL, f"two-state nu(1) {data['nu']['1']!r}")


def oracle_residual(out: Path, memo: dict) -> None:
    _oracle_residual(_json(out, "oracle.json"))


def oracle_bd12(out: Path, memo: dict) -> None:
    """bd:1,2 windows: theta above van Doorn's bound and falling as K grows."""
    data = _json(out, "oracle.json")
    _oracle_residual(data)
    k, theta = data["K"], data["theta"]
    _require(theta > BD12_THETA_STAR, f"theta {theta!r} at K={k} is not above (sqrt2-1)^2")
    thetas = memo.setdefault("bd12_theta", {})
    for k2, theta2 in thetas.items():
        if k2 != k:
            _require((theta < theta2) == (k > k2), f"theta does not fall from K={min(k, k2)} to {max(k, k2)}")
    thetas[k] = theta


def phi_two_state(out: Path, memo: dict) -> None:
    _require(_json(out, "summary.json")["converged"] is True, "phi on two-state did not converge")
    dist = {int(r["state"]): float(r["mass"]) for r in _rows(out, "phi_dist.csv")}
    tv = _tv(dist, T2_NU)
    _require(tv <= 1e-8, f"phi fixed point TV to the exact QSD {tv:.3g}")


def phi_progress(out: Path, memo: dict) -> None:
    """A capped phi run: the TV between iterates must shrink."""
    log = [float(r["tv"]) for r in _rows(out, "phi.csv")]
    _require(bool(log) and log[-1] <= log[0], f"phi TV log does not shrink: {log[:1]} .. {log[-1:]}")
    _sums_to_one(_rows(out, "phi_dist.csv"), (), "phi_dist.csv")


def conditioned(tol: float | None):
    """Every recorded law sums to 1; with ``tol``, the final one is near the two-state QSD."""

    def check(out: Path, memo: dict) -> None:
        rows = _rows(out, "conditioned.csv")
        _sums_to_one(rows, ("t",), "conditioned.csv")
        if tol is not None:
            t_end = max((r["t"] for r in rows), key=float)
            final = {int(r["state"]): float(r["mass"]) for r in rows if r["t"] == t_end}
            tv = _tv(final, T2_NU)
            _require(tv <= tol, f"conditioned law at t={t_end} is {tv:.3g} from the QSD")

    return check


# -- workloads ----------------------------------------------------------------


def _ops(*specs) -> dict[str, Op]:
    """Ops keyed by kind from (kind, `qsd` arguments, check) triples."""
    return {kind: Op(kind, tuple(argv.split()), check) for kind, argv, check in specs}


# Warm-up ops: one small op per subcommand.  Set-up runs them with a fixed
# seed before timing, so their checks cannot fail by chance; `--size tiny`
# runs them as the whole round.
WARMUP = _ops(
    ("warmup:fv-stationary", "fv --model two-state --particles 50 --horizon 5 --burnin 1", fv_stationary(0.15)),
    ("warmup:fv-fixed", "fv --model two-state --particles 10 --horizon 0.5 --init delta:2 --replicas 5", fv_fixed(0.35)),
    ("warmup:afp", "afp --model two-state --steps 5000 --start 1", afp(0.1)),
    ("warmup:branch", "branch --model two-state --alpha 2 --horizon 6 --cap 1000 --replicas 4", branch_two_state(0.35)),
    ("warmup:couple", "couple --model two-state --particles 10 --horizon 0.5 --init delta:2 --replicas 2", couple(0.5)),
    ("warmup:scan", "scan --model two-state --particles 5,80 --horizon 0.5 --init delta:2 --replicas 20 --state 1", scan(0.5)),
    ("warmup:oracle", "oracle --model two-state", oracle_two_state),
    ("warmup:phi", "phi --model two-state --init delta:1", phi_two_state),
    ("warmup:conditioned", "conditioned --model two-state --init delta:2 --horizon 1", conditioned(None)),
)

_LONG = _ops(
    ("fv:two-state", "fv --model two-state --particles 1000 --horizon 12 --burnin 2", fv_stationary(0.05)),
    ("fv:gw", "fv --model gw:1,2 --trunc 100 --particles 1000 --horizon 3 --burnin 0.5", fv_stationary(0.2)),
    ("fv:bd", "fv --model bd:1,2,50 --particles 100 --horizon 85 --burnin 15", fv_stationary(0.35)),
    ("fv-fixed:gw", "fv --model gw:1,2 --particles 1000 --horizon 3 --init delta:1", fv_fixed(None)),
    ("afp:two-state", "afp --model two-state --steps 150000 --start 1", afp(0.05)),
    ("afp:bd", "afp --model bd:1,2,100 --steps 100000 --start 1", afp(0.4)),
    ("branch:two-state", "branch --model two-state --alpha 2 --horizon 10 --cap 7500 --replicas 8", branch_two_state(0.1)),
)

_SHORT = _ops(
    ("fv-fixed:two-state", "fv --model two-state --particles 20 --horizon 1 --init delta:2 --replicas 50", fv_fixed(0.25)),
    ("scan:two-state", "scan --model two-state --particles 10,20,40,80 --horizon 1 --init delta:2 --replicas 30 --state 1",
     scan(0.4)),
    ("couple:n20", "couple --model two-state --particles 20 --horizon 1 --init delta:2 --replicas 6", couple(1.0)),
    ("couple:n80", "couple --model two-state --particles 80 --horizon 2 --init delta:2 --replicas 3", couple(2.0)),
)

_SOLVERS = _ops(
    ("oracle:two-state", "oracle --model two-state", oracle_two_state),
    ("phi:two-state", "phi --model two-state --init delta:1", phi_two_state),
    ("oracle:bd40", "oracle --model bd:0.6,1.7,40", oracle_residual),
    ("phi:bd200", "phi --model bd:1,2,200 --init delta:1 --iters 50", phi_progress),
    ("conditioned:two-state", "conditioned --model two-state --init delta:2 --horizon 5", conditioned(1e-3)),
    ("conditioned:bd200", "conditioned --model bd:1,2,200 --init delta:1 --horizon 2", conditioned(None)),
    ("oracle:bd-K200", "oracle --model bd:1,2 --trunc 200", oracle_bd12),
    ("oracle:bd-K400", "oracle --model bd:1,2 --trunc 400", oracle_bd12),
)


def _round(table: dict[str, Op], counts: dict[str, int]) -> list[Op]:
    return [table[kind] for kind, n in counts.items() for _ in range(n)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    round: list[Op]
    warmup: list[Op]


# The op mix of each round places op_p50_s and op_p90_s in the middle of one
# kind's cluster of latencies, not on the edge between two kinds, so that a
# small shift in one kind cannot make a percentile jump to its neighbour:
# op_p50_s is fv:bd, scan and phi:bd200; op_p90_s is branch, couple and the
# K=200 oracle.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "long-stream",
            "each replica is >= 1e4 events on one stream, so event kernels dominate and stream set-up is under 1% of the time",
            _round(_LONG, {"fv-fixed:gw": 1, "fv:two-state": 1, "afp:two-state": 1,
                           "fv:gw": 2, "fv:bd": 2, "afp:bd": 2, "branch:two-state": 3}),
            [WARMUP[f"warmup:{k}"] for k in ("fv-stationary", "fv-fixed", "afp", "branch")],
        ),
        Workload(
            "short-replicas",
            "tens to hundreds of events per replica, so per-replica fixed costs (streams, RK4 paths) dominate",
            _round(_SHORT, {"fv-fixed:two-state": 2, "scan:two-state": 4, "couple:n20": 1, "couple:n80": 1}),
            [WARMUP[f"warmup:{k}"] for k in ("fv-fixed", "scan", "couple")],
        ),
        Workload(
            "solvers",
            "deterministic power iteration, phi solves and RK4 with no simulation and no streams",
            _round(_SOLVERS, {"oracle:two-state": 2, "phi:two-state": 2, "oracle:bd40": 2, "phi:bd200": 4,
                              "conditioned:two-state": 2, "conditioned:bd200": 2,
                              "oracle:bd-K200": 2, "oracle:bd-K400": 1}),
            [WARMUP[f"warmup:{k}"] for k in ("oracle", "phi", "conditioned")],
        ),
    )
}
