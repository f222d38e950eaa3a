"""The README's Python API example runs, and the package exports what it lists."""

import contextlib
import io
import re
from pathlib import Path

import stefbench

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_api_snippet() -> str:
    section = README.read_text().split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    (snippet,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    return snippet


def test_python_api_snippet_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_python_api_snippet(), str(README), "exec"), {})
    status_and_root, rho, matched = out.getvalue().splitlines()
    assert status_and_root == "converged 0.739085133215160641655312087674"
    assert rho.startswith("3.9999")
    assert matched == "6 / 14"


def test_every_exported_name_resolves():
    missing = [name for name in stefbench.__all__ if not hasattr(stefbench, name)]
    assert missing == []
