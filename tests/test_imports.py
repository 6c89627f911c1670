"""Which package modules each module loads, in a fresh interpreter: a module
loads only itself and the modules it imports from below, and the package
itself binds no names, so importing it loads no submodule."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bruckloops

SRC = str(Path(bruckloops.__file__).resolve().parents[1])
BASE = {"bruckloops", "bruckloops.errors", "bruckloops.linalg"}
LOADS = {
    "bruckloops": {"bruckloops"},
    "bruckloops.linalg": BASE,
    "bruckloops.groups": BASE | {"bruckloops.groups"},
    "bruckloops.geometry": BASE | {"bruckloops.geometry"},
    "bruckloops.kernel": BASE | {"bruckloops.kernel"},
    "bruckloops.matrixloop": BASE | {"bruckloops.groups", "bruckloops.matrixloop"},
    "bruckloops.extension": BASE
    | {"bruckloops.geometry", "bruckloops.groups", "bruckloops.matrixloop", "bruckloops.extension"},
}


def loaded_by(module: str) -> set:
    """The package modules in ``sys.modules`` after importing ``module``
    alone, in a fresh interpreter that finds the package where this one does."""
    code = f"import sys, {module}\nprint(*(m for m in sys.modules if m.split('.')[0] == 'bruckloops'))"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


@pytest.mark.parametrize("module", sorted(LOADS))
def test_module_loads_only_the_modules_below_it(module):
    assert loaded_by(module) == LOADS[module]
