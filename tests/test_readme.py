"""The README's library quickstart runs and prints what its comments
say, and its command example runs."""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from fhn_torus import LatticeParams, critical_a

ROOT = Path(__file__).resolve().parents[1]


def quickstart_source() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    return block


def test_quickstart_prints_commented_values():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", quickstart_source()],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    a_star, label, crossing, orbit = proc.stdout.splitlines()
    assert abs(float(a_star) - 1.5) <= 1e-12
    assert label == "Z(0,1)"
    a_hat, mode = crossing.split(" ", 1)
    lp = LatticeParams(n=3, a=0.0, b=1.0, c=0.0, gamma=1.0, delta=-1.0)
    assert float(a_hat) < 1.5
    assert ast.literal_eval(mode) == critical_a(lp).primary.mode
    period, fixing = orbit.split()
    assert abs(float(period) - 6.35) <= 0.1
    assert fixing == "Gamma"


def readme_commands() -> list:
    """The ``fhn-torus`` lines of the README's command example, each
    with its backslash continuations joined, split into arguments."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", text, flags=re.S)
                if "fhn-torus " in b]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("fhn-torus ")]


def test_command_example_runs_in_order(tmp_path):
    commands = readme_commands()
    assert len(commands) == 7
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in commands:  # classify reads the traj.csv simulate wrote
        proc = subprocess.run([sys.executable, "-m", "fhn_torus"] + argv[1:],
                              cwd=tmp_path, capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)
        if "--output" in argv:
            assert (tmp_path / argv[argv.index("--output") + 1]).stat().st_size > 0
