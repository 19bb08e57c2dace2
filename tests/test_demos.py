"""Every demo imports only names that specfrag has, and runs to its summary.

The import check parses each file, so an API removal that would break a
demo shows up without running it. The run check executes each demo (the
Henon-Heiles one on a 12-shell basis) and checks that it exits 0 and prints
the lines that state its result: the crossing summary, or for the two demos
without a crossing, their closing lines.
"""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import specfrag

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# demo -> (arguments, prefixes of the summary lines it must print)
RUNS = {
    "henon_heiles_transition.py": (
        ["--shells", "12"], ("W_pt  = 0.5: ", "W_ex  = 0.5: ", "kappa = 1.0: ")
    ),
    "invariance_check.py": (
        [], ("block-rotation drift over 200 seeds: ", "W(0.5) * 16 == W(2.0): True")
    ),
    "kepler_transition.py": ([], ("W_pt = 0.5", "W_exact = 0.5")),
    "spreading_width_tour.py": ([], ("per-state view of shell 14", "  state 105: local width ")),
}


def specfrag_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "specfrag":
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "specfrag":
                    yield alias.name, None


def test_demos_found():
    assert len(DEMOS) >= 4
    assert sorted(RUNS) == [p.name for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    names = list(specfrag_imports(path))
    assert names, f"{path.name} imports nothing from specfrag"
    for module, name in names:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{path.name}: {module} has no {name}"


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs_to_its_summary(path):
    args, summary = RUNS[path.name]
    # the child imports the same specfrag sources as this process
    paths = [str(Path(specfrag.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, str(path), *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for prefix in summary:
        assert any(line.startswith(prefix) for line in lines), f"{path.name}: no {prefix!r} line"
