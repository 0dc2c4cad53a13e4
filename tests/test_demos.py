"""The demos run to completion against the package's public surface.

Demos 04 (filter comparison) and 05 (nonlinearity sweep) are left out
because each takes about 10 s; the remaining four take about 4 s together.
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
    "06_particle_convergence.py",
])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
