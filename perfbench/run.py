"""qsdsim benchmark: a closed-loop client of the `qsd` command line.

One process and one thread call ``qsdsim.cli.main(argv)`` in-process, one op
at a time; each op is one ``qsd <subcommand> ...`` invocation, so it runs
through cli -> harness -> route modules like a user's run.  Run it from the
repository root:

    python3 perfbench/run.py --workload long-stream --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Run facts and the full record go to ``perfbench/results/``.  See
``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Op  # noqa: E402

SETUP_PROBES = 5
# Nominal time of the calibration kernel (see calibrate()); it sets the scale
# of every corrected time.  The kernel takes 6-10 ms on the 2-vCPU host the
# benchmark was built on.
CALIBRATION_S = 0.010
WARMUP_SEED = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Size:
    min_ops: int  # the untraced timed phase runs at least this many ops
    min_rounds: int  # the traced run has at least this many traced rounds


SIZES = {"full": Size(min_ops=100, min_rounds=2), "tiny": Size(min_ops=1, min_rounds=1)}


def calibrate() -> float:
    """Time one run of a fixed kernel: a probe of how fast the host runs right now.

    Other tenants of a shared host slow every process on it by up to about
    2x for tens of seconds at a time; the kernel slows with them.  It is the
    benchmark's own code, so no change to qsdsim moves it, and it mixes the
    three kinds of work qsdsim's ops do: an interpreter loop over floats and a
    dict, numpy vector ops and dense LAPACK solves.
    """
    import numpy

    t0 = time.perf_counter()
    rng = random.Random(5)
    acc, tally = 0.0, {}
    for i in range(20000):
        x = rng.random()
        acc += x * x
        tally[i % 97] = tally.get(i % 97, 0.0) + x
    v = numpy.linspace(0.0, 1.0, 4000)
    for _ in range(100):
        v = numpy.cumsum(v) / v.size
    a = numpy.eye(120) * 4.0 + numpy.eye(120, k=1) + numpy.eye(120, k=-1)
    for _ in range(10):
        v = numpy.linalg.solve(a, numpy.full(120, acc))
    return time.perf_counter() - t0


def load_program():
    """Import qsdsim from this checkout's ``src``; raise if it is not there."""
    src = ROOT / "src"
    if not (src / "qsdsim" / "__init__.py").is_file():
        raise FileNotFoundError(f"no qsdsim package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import qsdsim.cli
    import qsdsim.harness

    if Path(qsdsim.__file__).resolve().parent != (src / "qsdsim").resolve():
        raise ImportError(f"qsdsim was imported from {qsdsim.__file__}, not from {src}")
    return qsdsim


@dataclass
class OpResult:
    latency: float
    error: str | None


@dataclass
class Runner:
    """Runs ops in one work directory, checks their output and counts failures."""

    workdir: Path
    tracer: spans.Tracer | None = None
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    memo: dict = field(default_factory=dict)

    def out_dir(self, slot: int) -> Path:
        return self.workdir / f"op{slot}"

    def run(self, op: Op, seed: int, slot: int) -> OpResult:
        import qsdsim.cli

        out = self.out_dir(slot)
        shutil.rmtree(out, ignore_errors=True)
        argv = [*op.argv, "--seed", str(seed), "--out-dir", str(out)]
        if self.tracer is not None:
            self.tracer.op = self.attempted
        self.attempted += 1
        sink = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = qsdsim.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception:  # a failing op is counted, never fatal
            code = None
            error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        latency = time.perf_counter() - t0
        if error is None and code != 0:
            error = f"exit code {code}: {sink.getvalue().strip()[-300:]}"
        if error is None:
            try:
                op.check(out, self.memo)
            except CheckFailed as exc:
                error = f"check: {exc}"
            except (OSError, KeyError, ValueError, TypeError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(f"{op.kind} seed={seed}: {error}")
        return OpResult(latency, error)

    def data_hashes(self, slot: int) -> dict[str, str]:
        """sha256 of each data file an op wrote; summary.json holds wall time and is left out."""
        out = self.out_dir(slot)
        if not out.is_dir():
            return {}
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
            if p.is_file() and p.name != "summary.json"
        }


@dataclass
class Phase:
    """Latencies and per-round wall times of the rounds run so far."""

    latencies: list[float] = field(default_factory=list)  # host-speed corrected
    raw_latencies: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    round_walls: list[float] = field(default_factory=list)

    def kind_medians(self) -> dict[str, float]:
        by_kind: dict[str, list[float]] = {}
        for kind, latency in zip(self.kinds, self.latencies):
            by_kind.setdefault(kind, []).append(latency)
        return {kind: statistics.median(xs) for kind, xs in sorted(by_kind.items())}


def run_round(runner: Runner, ops: list[Op], seeds: list[int], phase: Phase, hashes: dict | None = None) -> None:
    """Run one round; with ``hashes``, also record the data-file hashes of each op.

    The calibration kernel runs before the first op and after every op, and
    each op's latency is scaled by ``CALIBRATION_S`` over the mean of the
    kernel's times just before and just after it.
    """
    latencies, raws = [], []
    before = calibrate()
    for slot, (op, seed) in enumerate(zip(ops, seeds)):
        raw = runner.run(op, seed, slot).latency
        after = calibrate()
        latencies.append(raw * CALIBRATION_S / ((before + after) / 2))
        raws.append(raw)
        before = after
        if hashes is not None:
            hashes[slot] = runner.data_hashes(slot)
    phase.latencies.extend(latencies)
    phase.raw_latencies.extend(raws)
    phase.kinds.extend(op.kind for op in ops)
    phase.round_walls.append(sum(latencies))


def check_repeats(runner: Runner, ops: list[Op], seeds: list[int], first: dict[int, dict]) -> None:
    """Rerun each distinct op of the first round with its seed; data files must match byte for byte."""
    seen = set()
    for slot, (op, seed) in enumerate(zip(ops, seeds)):
        if op in seen:
            continue
        seen.add(op)
        if runner.run(op, seed, slot).error is None and runner.data_hashes(slot) != first[slot]:
            runner.failures.append(f"{op.kind} seed={seed}: rerun wrote different data files")


def setup_probe(workload: str) -> int:
    """Child mode: import and warm up, then print the wall clock at which timing could start."""
    load_program()
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        runner = Runner(Path(tmp))
        for slot, op in enumerate(WORKLOADS[workload].warmup):
            runner.run(op, WARMUP_SEED, slot)
    print(json.dumps({"ready": time.time(), "failures": runner.failures}))
    return 0


def measure_setup(workload: str) -> tuple[list[float], list[float], list[str]]:
    """Start ``SETUP_PROBES`` fresh processes; each sample runs from spawn to ready.

    Returns the samples corrected for host speed like op latencies (the
    calibration kernel runs just before and just after each probe), the raw
    samples and the failures.
    """
    samples, raws, failures = [], [], []
    for _ in range(SETUP_PROBES):
        before = calibrate()
        t0 = time.time()
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
                cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
            )
        except subprocess.TimeoutExpired:
            failures.append("setup probe timed out")
            continue
        if proc.returncode != 0:
            failures.append(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        raw = record["ready"] - t0
        samples.append(raw * CALIBRATION_S / ((before + calibrate()) / 2))
        raws.append(raw)
        failures.extend(f"setup probe: {msg}" for msg in record["failures"])
    return samples, raws, failures


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_facts(qsdsim, workload: str, seed: int, ops: list[Op]) -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    kinds: dict[str, int] = {}
    for op in ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_lines": src_lines,
        "worker_count": qsdsim.harness.worker_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload": workload,
        "seed": seed,
        "ops_per_round": kinds,
    }


def _p90(xs: list[float]) -> float:
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def timed_phase(runner: Runner, ops: list[Op], rng: random.Random, seconds: float, size: Size,
                tracer: spans.Tracer | None) -> tuple[Phase, Phase]:
    """Run rounds until ``seconds`` have passed and the size's minimum is met; then the rerun check.

    The first round warms the process up at full size and records the data
    files for the rerun check; it is not part of the returned phases.  With a
    tracer, untraced and traced rounds alternate, so drift hits both alike.
    Returns the untraced and the traced phase.
    """

    def seeds() -> list[int]:
        return [rng.randrange(1, 2**31) for _ in ops]

    t0 = time.perf_counter()
    untraced, traced = Phase(), Phase()
    first_seeds, first_hashes = seeds(), {}
    run_round(runner, ops, first_seeds, Phase(), first_hashes)
    if tracer is None:
        while len(untraced.latencies) < size.min_ops or time.perf_counter() - t0 < seconds:
            run_round(runner, ops, seeds(), untraced)
    else:
        while len(traced.round_walls) < size.min_rounds or time.perf_counter() - t0 < seconds:
            if len(traced.round_walls) < len(untraced.round_walls):
                with tracer.installed():
                    runner.tracer = tracer
                    try:
                        run_round(runner, ops, seeds(), traced)
                    finally:
                        runner.tracer = None
            else:
                run_round(runner, ops, seeds(), untraced)
    check_repeats(runner, ops, first_seeds, first_hashes)
    return untraced, traced


def benchmark(workload: str, seed: int, seconds: float, trace: bool, size: Size,
              ops: list[Op] | None = None) -> dict:
    """One run: set-up, timed phase and metrics; returns the record also written to ``results/``."""
    qsdsim = load_program()
    w = WORKLOADS[workload]
    if ops is None:
        ops = w.round if size is SIZES["full"] else w.warmup
    setup_samples, setup_raw, setup_failures = ([], [], []) if trace else measure_setup(workload)
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=RESULTS))
    runner = Runner(workdir, failures=setup_failures)
    tracer = spans.Tracer() if trace else None
    try:
        for slot, op in enumerate(w.warmup):
            runner.run(op, WARMUP_SEED, slot)
        untraced, traced = timed_phase(runner, ops, random.Random(seed), seconds, size, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = runner.attempted, len(runner.failures)
    wall = statistics.median(untraced.round_walls)
    if tracer is not None:
        layers = spans.layer_metrics(tracer.spans, len(traced.round_walls))
        layers["trace.overhead"] = statistics.median(traced.round_walls) / wall - 1.0
        layers["fail_ratio"] = failed / attempted
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in spans.LAYER_METRICS}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples) if setup_samples else 0.0, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "op_p50_s": {"value": statistics.median(untraced.latencies), "unit": "s"},
            "op_p90_s": {"value": _p90(untraced.latencies), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    facts = run_facts(qsdsim, workload, seed, ops)
    facts.update({
        "trace": trace,
        "timed_ops": len(untraced.latencies),
        "rounds": len(untraced.round_walls),
        "traced_rounds": len(traced.round_walls),
        "fail_ratio": failed / attempted,
        "setup_samples_s": setup_samples,
        "raw_setup_samples_s": setup_raw,
        "round_walls_s": untraced.round_walls,
        "raw_wall_s": statistics.median(
            sum(untraced.raw_latencies[i:i + len(ops)]) for i in range(0, len(untraced.raw_latencies), len(ops))
        ),
        "raw_op_p50_s": statistics.median(untraced.raw_latencies),
        "raw_op_p90_s": _p90(untraced.raw_latencies),
        "op_median_s": untraced.kind_medians(),
        "traced_op_median_s": traced.kind_medians(),
    })
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"facts": facts, "failures": runner.failures, **result}
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(RESULTS / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.op, s.counts] for s in tracer.spans], fh)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny runs one small round, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop("QSD_THREADS", None)  # the program runs with its own default
    # One BLAS thread: on a small shared host a second OpenBLAS thread that
    # waits for a busy core made dense solves several times slower at random.
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    try:
        if args.setup_probe:
            return setup_probe(args.workload)
        record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), SIZES[args.size])
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("# facts " + json.dumps(record["facts"], sort_keys=True))
    for msg in record["failures"][:20]:
        print(f"# failed: {msg}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
