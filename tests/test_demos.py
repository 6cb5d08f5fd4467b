"""The quick demos run to completion as scripts.

Each demo is a standalone program over the public API, so a change that
breaks one (a renamed attribute, a removed setting) shows up here rather
than only when someone runs it by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# 04 and 05 are the programs that run the forecast and bulletin queries; 07
# is the one that rolls out both kinds of env: its toy world is stepped, and
# its DatasetEnv is rolled out as arrays
@pytest.mark.parametrize("name", ["01_synthetic_world", "02_autodiff",
                                  "04_forecasting", "05_systemic_risk",
                                  "06_staged_training", "07_risk_aware_rl"])
def test_demo_exits_0(name, tmp_path):
    # the demo's temporary files go to a directory of the test's own, which
    # it must leave empty
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", TMPDIR=str(scratch),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert list(scratch.iterdir()) == []
