"""Smoke test of the narrative demos and of the README's python blocks: each runs to completion
against the current API; the README's command lines parse against the current flags."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pdqkd import cli

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


def test_readme_command_lines_parse():
    # each pdqkd line of the sh blocks, its continuations joined and its comment dropped, is
    # parsed as the command line would parse it; nothing runs
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    commands = [argv[1:] for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if (argv := shlex.split(line, comments=True))[:1] == ["pdqkd"]]
    assert commands
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: pdqkd {shlex.join(argv)}")
