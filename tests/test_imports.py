"""Every subpackage imports on its own, and the import graph has one
direction.

An import cycle between packages only bites the interpreter that enters it
from the wrong end, and the test session enters from one end only — so each
package is imported *first* in an interpreter of its own, and the static
module-level import graph (``tests/import_graph.py``) must be acyclic.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from tests.import_graph import find_cycle, import_graph, module_files

SRC = Path(repro.__file__).resolve().parents[1]
FIRST_IMPORTS = sorted(
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.ispkg
) + ["repro.cache", "repro.host.costmodel", "repro.host.hostmodel"]


@pytest.mark.parametrize("module", FIRST_IMPORTS)
def test_imports_first_in_a_fresh_interpreter(module):
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True, text=True, cwd=str(SRC), timeout=60,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("first, second", [
    ("repro.sysapi", "repro.cpu"), ("repro.cpu", "repro.sysapi"),
])
def test_cpu_and_sysapi_import_in_either_order(first, second):
    """The loader imports ``repro.cpu`` and the functional interpreter
    imports ``repro.sysapi``: either package may be entered first."""
    done = subprocess.run(
        [sys.executable, "-c",
         f"import {first}, {second}\nfrom repro.cpu.interp import run_functional"],
        capture_output=True, text=True, cwd=str(SRC), timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_compiling_never_imports_numpy():
    """The compiler's closure (``lang/``, ``isa/``, ``sysapi/syscalls.py``,
    ``_util.py``, ``cache.py``) is pure Python: numpy comes with the
    simulator and the oracles, not with a compile."""
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.lang.compiler\nassert 'numpy' not in sys.modules"],
        capture_output=True, text=True, cwd=str(SRC), timeout=60,
    )
    assert done.returncode == 0, done.stderr


_LAYERING_PROBE = """
import sys
from repro.experiments.parallel import resolve
from repro.jobs import JobSpec, execute

spec = JobSpec.build("fft", "tiny", scheme="s9", host_cores=2)
assert not execute(spec, store=None).hit
assert len(resolve([spec])) == 1
pooled = [JobSpec.build("fft", "tiny", scheme=s, host_cores=2) for s in ("cc", "su")]
assert len(resolve(pooled, jobs=2)) == 2
leaked = sorted(m for m in sys.modules if m == "repro.serve" or m.startswith("repro.serve."))
assert not leaked, leaked
"""


def test_running_a_job_never_imports_the_serve_package(tmp_path):
    """The engine, the executor and the sweep resolver — serial or on the
    worker pool — know nothing of who launched or watches them: the serve
    layer sits on top, not underneath."""
    done = subprocess.run(
        [sys.executable, "-c", _LAYERING_PROBE],
        capture_output=True, text=True, cwd=str(SRC), timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC), "REPRO_CACHE_DIR": str(tmp_path)},
    )
    assert done.returncode == 0, done.stderr


#: The packages that export names, and the names: the entry points outside
#: callers (examples, the README, the benchmark) use.  Every other package
#: ``__init__`` is its docstring only (DESIGN.md §3 *Import rule*).
ENTRY_POINTS = {
    "repro": {"__version__"},
    "repro.core": {"SimConfig", "TargetConfig", "run_simulation"},
    "repro.jobs": {"JobSpec", "ResultStore", "execute", "job_key", "spec_program"},
    "repro.lang": {"compile_source"},
}


def test_module_level_import_graph_is_acyclic():
    assert find_cycle(import_graph()) is None


def test_only_the_entry_points_export_names():
    for name, path in module_files().items():
        if path.name != "__init__.py":
            continue
        doc, *body = ast.parse(path.read_text()).body
        assert isinstance(doc, ast.Expr), f"{name} has no docstring"
        bound = set()
        for node in body:
            assert isinstance(node, (ast.ImportFrom, ast.Assign)), f"{name}: {ast.unparse(node)}"
            if isinstance(node, ast.ImportFrom):
                bound |= {alias.asname or alias.name for alias in node.names}
            else:
                bound |= {target.id for target in node.targets}
        assert bound - {"__all__"} == ENTRY_POINTS.get(name, set()), name
        if "__all__" in bound:
            assert set(importlib.import_module(name).__all__) == ENTRY_POINTS[name], name
