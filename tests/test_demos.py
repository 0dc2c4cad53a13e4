"""Every demo runs to completion against the package's public surface.

Each demo runs in a child process with ``-W error``, as pytest's own
``filterwarnings = ["error"]`` does not reach child processes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", [
    "01_gaussian_toolbox.py",
    "02_grid_metric.py",
    "03_measure_maps.py",
    "04_filter_comparison.py",
    "05_nonlinearity_sweep.py",
    "06_particle_convergence.py",
])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
