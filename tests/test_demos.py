"""The cheap demos run to completion.

Each demo runs in a fresh interpreter on one BLAS thread, importing the
qsdsim under test.  Together these take about 14 s; demos 03, 07 and 08
drive ``fv_run``, ``fv_stationary``, ``afp_run`` and ``ks_estimate`` end to
end.  The other demos run longer and are left out.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import blas_thread_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"
CHEAP = (
    "01_oracle_and_fixed_point",
    "02_conditioned_evolution",
    "03_fleming_viot",
    "05_return_process_phi",
    "07_afp_history_renewal",
    "08_branching_estimator",
)


@pytest.mark.parametrize("name", CHEAP)
def test_demo_exits_0(name):
    done = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        env=blas_thread_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
