"""The README's examples run as shown, and the package exports what it lists."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

import stefbench
from stefbench.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_api_snippet() -> str:
    section = README.read_text().split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    (snippet,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    return snippet


def _cli_examples() -> list:
    """(command line, printed lines) of every code block that opens with ``$ stefbench``."""
    examples, block = [], None
    for line in README.read_text().splitlines():
        if not line.startswith("```"):
            if block is not None:
                block.append(line)
        elif block is None:
            block = []
        else:
            if block and block[0].startswith("$ stefbench "):
                examples.append((block[0][len("$ stefbench "):], block[1:]))
            block = None
    return examples


def test_python_api_snippet_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_python_api_snippet(), str(README), "exec"), {})
    status_and_root, rho, matched = out.getvalue().splitlines()
    assert status_and_root == "converged 0.739085133215160641655312087674"
    assert rho.startswith("3.9999")
    assert matched == "6 / 14"


def test_the_readme_shows_three_cli_examples():
    assert [command.split()[0] for command, _ in _cli_examples()] == ["solve", "bench", "coc"]


@pytest.mark.parametrize(
    "command, printed", [pytest.param(c, p, id=c) for c, p in _cli_examples()]
)
def test_cli_example_prints_what_the_readme_shows(capsys, command, printed):
    assert main(shlex.split(command)) == 0
    lines = [line.rstrip() for line in capsys.readouterr().out.splitlines()]
    assert lines == [line.rstrip() for line in printed]


def test_every_exported_name_resolves():
    missing = [name for name in stefbench.__all__ if not hasattr(stefbench, name)]
    assert missing == []
