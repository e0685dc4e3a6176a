"""The README's "Library use" example runs against the package as it is."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_example_runs():
    code = library_use_block()
    assert "import lapbounds as lb" in code
    exec(compile(code, f"{README.name}:Library use", "exec"), {})
