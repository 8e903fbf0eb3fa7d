"""Tests of the benchmark itself: tiny runs, failure counting and output checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, lines
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared("per_layer" if trace else "end_to_end")
    facts = json.loads(next(ln for ln in lines if ln.startswith("# facts "))[len("# facts "):])
    assert facts["fail_ratio"] == 0.0 and facts["worker_count"] == 1


def test_workload_names_match_the_declaration():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }


def test_bad_op_is_counted_not_fatal():
    bad = workloads.Op("bad", ("oracle", "--model", "no-such-model"), workloads.oracle_residual)
    ops = [*workloads.WORKLOADS["solvers"].warmup, bad]
    record = run.benchmark("solvers", 3, 0.0, False, run.SIZES["tiny"], ops=ops)
    # the bad op fails in the untimed first round, the timed round and the rerun check
    assert record["failed"] == 3 and not record["correct"]
    assert all(msg.startswith("bad ") and "no-such-model" in msg for msg in record["failures"])
    assert record["facts"]["fail_ratio"] == record["failed"] / record["attempted"]


def _oracle_json(out: Path, **fields) -> None:
    data = {"nu": {"1": workloads.T2_NU[1], "2": workloads.T2_NU[2]}, "lambda": workloads.T2_LAMBDA,
            "theta": -workloads.T2_LAMBDA, "residual": 0.0, "K": 2}
    data.update(fields)
    (out / "oracle.json").write_text(json.dumps(data), encoding="utf-8")


def test_oracle_checks_reject_wrong_output(tmp_path):
    _oracle_json(tmp_path)
    workloads.oracle_two_state(tmp_path, {})
    _oracle_json(tmp_path, **{"lambda": workloads.T2_LAMBDA + 1e-7})
    with pytest.raises(workloads.CheckFailed):
        workloads.oracle_two_state(tmp_path, {})
    _oracle_json(tmp_path, residual=1e-6)
    with pytest.raises(workloads.CheckFailed):
        workloads.oracle_residual(tmp_path, {})

    memo = {}
    _oracle_json(tmp_path, K=200, theta=0.19)
    workloads.oracle_bd12(tmp_path, memo)
    _oracle_json(tmp_path, K=400, theta=0.20)  # theta must fall as K grows
    with pytest.raises(workloads.CheckFailed):
        workloads.oracle_bd12(tmp_path, memo)
    _oracle_json(tmp_path, K=800, theta=0.17)  # below van Doorn's (sqrt2 - 1)^2
    with pytest.raises(workloads.CheckFailed):
        workloads.oracle_bd12(tmp_path, memo)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "solvers", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
