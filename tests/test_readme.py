"""The README's library quickstart runs and prints what its comments say."""

import ast
import os
import re
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
