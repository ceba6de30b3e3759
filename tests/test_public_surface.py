"""The package's public names: every ``__all__`` entry exists, star
imports work from a fresh interpreter, ``fhn_torus.__all__`` lists
exactly what the package ``__init__`` imports, ``bifurcation`` binds
the probe's own objects, a ``Trajectory`` has seven public members, and
every module stays below the parser's token step."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest

import fhn_torus

SRC = Path(fhn_torus.__file__).resolve().parents[1]

# every submodule but __main__, which runs the command line on import
SUBMODULES = [f"fhn_torus.{m.name}" for m in pkgutil.iter_modules(fhn_torus.__path__)
              if m.name != "__main__"]
WITH_ALL = ["fhn_torus"] + [name for name in SUBMODULES
                            if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("module", WITH_ALL)
def test_star_import_in_a_fresh_interpreter(module):
    code = (f"from {module} import *\n"
            f"import {module} as m\n"
            "missing = [n for n in m.__all__ if n not in globals()]\n"
            "assert not missing, missing\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", WITH_ALL)
def test_every_listed_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_all_is_what_init_imports():
    tree = ast.parse(Path(fhn_torus.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(set(fhn_torus.__all__)) == len(fhn_torus.__all__)
    assert set(fhn_torus.__all__) == imported | {"__version__"}


def test_bifurcation_binds_the_probe_objects():
    # bench/tracing.py wraps fhn_torus.bifurcation.branch_criticality_probe
    # by replacing every binding of that object, so a wrapper or a copy
    # here would leave probe.busy_s at 0, just as simulate keeps the
    # state_permutation binding that bench/selfcheck.py checks
    for name in ("branch_criticality_probe", "ProbeSettings", "ProbeRun", "ProbeResult"):
        assert getattr(fhn_torus.bifurcation, name) is getattr(fhn_torus.probe, name)


def test_trajectory_is_read_through_seven_members():
    # a trajectory of node-only data and a view of its slots: nodes,
    # states and counters, the last node and state, the interpolant and
    # the views
    traj = fhn_torus._rk.dense_from_nodes(lambda t, z: z, np.arange(3.0), np.zeros((3, 2)))
    for read in (traj, traj.slots(slice(0, 1))):
        assert {name for name in dir(read) if not name.startswith("_")} == {
            "times", "states", "stats", "t_end", "final_state", "sample", "slots"}


# CPython's parser doubles its token store at 4,096 tokens: a module
# above that raises the import peak of every process that compiles it,
# about 0.24 MB, and with it every benchmark workload's peak_rss_mb.
_TOKEN_STEP = 4096


@pytest.mark.parametrize("path", sorted((SRC / "fhn_torus").glob("*.py")),
                         ids=lambda path: path.name)
def test_module_stays_below_the_parser_token_step(path):
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    with path.open("rb") as fh:
        count = sum(tok.type not in skipped for tok in tokenize.tokenize(fh.readline))
    assert count < _TOKEN_STEP
