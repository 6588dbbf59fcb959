"""Importing the package loads only what a run needs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("module", ["swarmstack", "swarmstack.cli"])
def test_import_loads_neither_scipy_nor_concurrent_futures(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy'\n"
            "             or m.startswith('concurrent.futures')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    assert out.strip() == "[]"
