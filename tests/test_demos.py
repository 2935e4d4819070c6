"""Smoke test of the narrative demos and of the README's python blocks: each runs to completion
against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_photon_statistics.py", "02_heralded_source_and_gains.py",
         "03_key_rate_and_loss_scan.py", "04_monte_carlo_validation.py",
         "05_virtual_experiments.py"]


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    run_python([str(ROOT / "demos" / demo)], tmp_path)


def test_readme_python_blocks_run(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        run_python(["-c", block], tmp_path)
