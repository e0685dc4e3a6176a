"""The README's "Library use" example runs against the package as it is."""
import os
import re
import subprocess
import sys
from pathlib import Path

import lapbounds

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_example_runs():
    code = library_use_block()
    assert "import lapbounds as lb" in code
    exec(compile(code, f"{README.name}:Library use", "exec"), {})


def test_library_use_example_runs_without_numpy():
    # numpy is a test dependency only: the example runs in a fresh
    # interpreter in which importing numpy fails
    code = library_use_block()
    assert "lb.laplacian(" in code and "lb.jacobi_eigenvalues(" in code
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys\nsys.modules['numpy'] = None\n" + code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ,
             "PYTHONPATH": str(Path(lapbounds.__file__).parent.parent)})
    assert done.returncode == 0, done.stderr
