"""Unused imports in the package modules and the scripts, found with ast:
no linter is a test dependency; which package layers the data modules may
import; and what `import poserefine` loads and starts."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "poserefine"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names a module imports and never refers to, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds a
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize(
    "path", MODULES + SCRIPTS, ids=[p.name for p in MODULES] + [f"scripts/{p.name}" for p in SCRIPTS]
)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_a_leftover_name():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .skeleton import N_LIMBS, wrap_angle\n"
        "def f(x: np.ndarray):\n"
        "    return os.path.join(wrap_angle(x))\n"
    )
    assert unused_imports(source) == ["N_LIMBS"]


def package_imports(source: str) -> set:
    """The package modules that a module imports by relative import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # `from . import refiner` names the module as an alias
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


@pytest.mark.parametrize("name", ["dataset", "fourier", "skeleton", "jsonio"])
def test_data_modules_import_nothing_from_the_network_layers(name):
    # the corpus and the geometry stand below the network, its training and
    # the pipeline; none of them may reach up for a constant
    layers = {"refiner", "training", "windows", "pipeline"}
    assert package_imports((SRC / f"{name}.py").read_text()) & layers == set()


def test_package_import_check_sees_a_relative_import():
    source = "from .refiner import RefinerModel\nfrom . import windows\nimport numpy\n"
    assert package_imports(source) == {"refiner", "windows"}


@pytest.mark.bigru
def test_import_starts_no_thread_pool_and_looks_up_no_blas():
    # refine_batch loads the thread pool and finds OpenBLAS on its first
    # call with several blocks; importing the package does neither
    script = (
        "import json, sys, threading\n"
        "import poserefine\n"
        "print(json.dumps([\n"
        "    'concurrent.futures' in sys.modules,\n"
        "    threading.active_count(),\n"
        "    poserefine.refiner._blas_thread_control.cache_info().currsize,\n"
        "]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == [False, 1, 0]
