"""Every subpackage imports on its own.

An import cycle between packages only bites the interpreter that enters it
from the wrong end, and the test session enters from one end only — so each
package is imported *first* in an interpreter of its own.
"""

import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
FIRST_IMPORTS = sorted(
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.ispkg
) + ["repro.host.costmodel", "repro.host.hostmodel"]


@pytest.mark.parametrize("module", FIRST_IMPORTS)
def test_imports_first_in_a_fresh_interpreter(module):
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True, text=True, cwd=str(SRC), timeout=60,
    )
    assert done.returncode == 0, done.stderr
