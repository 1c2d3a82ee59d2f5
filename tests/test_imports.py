"""Every subpackage imports on its own.

An import cycle between packages only bites the interpreter that enters it
from the wrong end, and the test session enters from one end only — so each
package is imported *first* in an interpreter of its own.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

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
