"""Which scipy modules each kind of run loads, and the dense window operator.

Replicas run in one plain loop, so no run, and no ``import qsdsim``, loads
``concurrent.futures``; the probe reports that module too.

scipy is imported only by the code that calls it.  ``scipy.sparse`` is
loaded in one place, ``LiveBlock.generator_t``, when a caller asks for the
CSR form of Q^T: the return map's solve, which the oracle's inverse
iteration and ``phi_map`` share, on windows that are not two-way paths and
have more than ``PHI_LAPACK_LIMIT`` states (it then loads
``scipy.sparse.linalg`` for the sparse LU), and the conditioned flow on
more than ``DENSE_WINDOW_LIMIT`` states (``scipy.sparse`` alone: its
uniformization steps are CSR matvecs, not ``expm_multiply``).  The dense
form, which every smaller window and the branching means read, needs
numpy alone.  Every builtin chain is a two-way path, so
the oracle, AFP, stationary FV and ``phi`` at any size need numpy alone on them, and so
does the oracle on the 12-state multi-jump file.  Each case runs in a fresh interpreter,
because this one has long since loaded scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from qsdsim import read_model_file, resolve_model
from qsdsim.conditioned import DENSE_WINDOW_LIMIT, _window_operator

from conftest import large_model_file, multi_jump_model_file

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import qsdsim, qsdsim.cli
argv = json.loads(sys.argv[1])
if argv and qsdsim.cli.main(argv) != 0:
    sys.exit("qsd run failed")
print(json.dumps(sorted(
    m for m in sys.modules
    if m == "scipy" or m.startswith("scipy.") or m == "concurrent.futures"
)))
"""


def loaded_modules(argv: list[str], out_dir: Path) -> set[str]:
    """The scipy modules and concurrent.futures, if loaded, after a fresh ``qsd argv`` run."""
    if argv:
        argv = [*argv, "--out-dir", str(out_dir)]
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


# "{model_file}" stands for the 12-state multi-jump model file, not a two-way path
NO_SCIPY = {
    "import": [],
    "fv-fixed-time": ["fv", "--model", "two-state", "--particles", "10", "--horizon", "1",
                      "--init", "delta:2", "--replicas", "2", "--seed", "1"],
    "scan": ["scan", "--model", "two-state", "--particles", "10,20", "--horizon", "1",
             "--init", "delta:2", "--replicas", "3", "--state", "1", "--seed", "1"],
    "couple": ["couple", "--model", "two-state", "--particles", "10", "--horizon", "1",
               "--init", "delta:2", "--replicas", "2", "--seed", "1"],
    "conditioned": ["conditioned", "--model", "two-state", "--init", "delta:2", "--horizon", "2"],
    "branch": ["branch", "--model", "two-state", "--alpha", "2", "--horizon", "5",
               "--cap", "1000", "--replicas", "2", "--seed", "1"],
    "phi": ["phi", "--model", "two-state", "--init", "delta:1"],
    "phi-path-250": ["phi", "--model", "bd:1,2,250", "--init", "delta:1", "--iters", "2"],
    "oracle": ["oracle", "--model", "bd:1,2", "--trunc", "200"],
    "oracle-multi-jump": ["oracle", "--model", "file:{model_file}"],
    "afp": ["afp", "--model", "two-state", "--steps", "1000", "--start", "1", "--seed", "1"],
    "fv-stationary": ["fv", "--model", "two-state", "--particles", "10", "--horizon", "4",
                      "--burnin", "1", "--seed", "1"],
}

# a conditioned flow on more than DENSE_WINDOW_LIMIT states steps with CSR matvecs
SPARSE_ONLY = {
    "conditioned-large": ["conditioned", "--model", "bd:1,2,500", "--init", "delta:1",
                          "--horizon", "0.5"],
}


@pytest.mark.parametrize("case", sorted(NO_SCIPY))
def test_small_runs_load_no_scipy(case, tmp_path):
    model_file = multi_jump_model_file(tmp_path)
    argv = [arg.format(model_file=model_file) for arg in NO_SCIPY[case]]
    loaded = loaded_modules(argv, tmp_path / "out")
    assert {m for m in loaded if m.startswith("scipy")} == set()
    assert "concurrent.futures" not in loaded


@pytest.mark.parametrize("case", sorted(SPARSE_ONLY))
def test_oracle_runs_load_scipy_sparse_only(case, tmp_path):
    loaded = loaded_modules(SPARSE_ONLY[case], tmp_path)
    assert "scipy.sparse" in loaded
    assert "scipy.sparse.linalg" not in loaded
    assert "scipy.linalg" not in loaded


def test_large_phi_loads_sparse_linalg(tmp_path):
    # 250 states with jumps that skip a state: not a two-way path, so one sparse LU
    model = f"file:{large_model_file(tmp_path)}"
    argv = ["phi", "--model", model, "--init", "delta:1", "--iters", "2"]
    assert "scipy.sparse.linalg" in loaded_modules(argv, tmp_path / "out")


def test_large_oracle_loads_sparse_linalg(tmp_path):
    # the oracle's inverse iteration takes the same sparse LU on that file
    argv = ["oracle", "--model", f"file:{large_model_file(tmp_path)}"]
    assert "scipy.sparse.linalg" in loaded_modules(argv, tmp_path / "out")


def reference_window_generator(model, states) -> np.ndarray:
    """Transposed window generator built as a CSR matrix and densified.

    The same (row, column, value) triples as ``_window_operator`` in the same
    order, summed by scipy: the construction the dense path replaced.
    """
    index = {x: i for i, x in enumerate(states)}
    rows, cols, vals = [], [], []
    for x in states:
        i = index[x]
        total = model.absorb_rate(x)
        for y, r in model.transitions(x):
            total += r
            if y in index:
                rows.append(index[y])
                cols.append(i)
                vals.append(r)
        rows.append(i)
        cols.append(i)
        vals.append(-total)
    n = len(states)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n)).toarray()


MODEL_FILE = """qsdmodel v1
1 2 0.7
1 0 0.3
2 1 1.1
2 3 0.45
3 2 2.5
3 1 0.125
3 0 1e-3
"""


@pytest.mark.parametrize("name, K", [
    ("two-state", 2), ("bd:1,2,200", 200), ("bd:0.6,1.7,40", 40), ("gw:1,2", 100), ("file", 3),
    ("multi-jump", 12), ("multi-jump", 9),
])
def test_dense_window_operator_matches_csr(name, K, tmp_path):
    if name == "file":
        path = tmp_path / "chain.qsdmodel"
        path.write_text(MODEL_FILE)
        model = read_model_file(path)
    elif name == "multi-jump":
        model = read_model_file(multi_jump_model_file(tmp_path))
    else:
        model = resolve_model(name)
    states = model.state_window(K)
    assert len(states) <= DENSE_WINDOW_LIMIT
    qt, _ = _window_operator(model, states)
    assert isinstance(qt, np.ndarray)
    ref = reference_window_generator(model, states)
    assert qt.dtype == ref.dtype and qt.shape == ref.shape
    assert qt.tobytes() == ref.tobytes()


def test_large_window_operator_stays_sparse():
    model = resolve_model("bd:1,2")
    states = model.state_window(DENSE_WINDOW_LIMIT + 1)
    qt, _ = _window_operator(model, states)
    assert sp.issparse(qt)
    assert np.array_equal(qt.toarray(), reference_window_generator(model, states))
