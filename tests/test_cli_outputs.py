"""Every command of tools/cli_outputs.py against its committed fingerprint.

tools/cli_outputs.txt records, under a first line naming the Python that
made it, one line per command: the hash of its output, its exit code and
the command. The tests run the same commands in-process and name each one
whose line moved. argparse's usage and help text change between Python
versions, so on another minor version than the record's the outputs of
the commands that print usage text are skipped; their exit codes are
still compared.
"""

import platform
import sys
from pathlib import Path

import pytest

from stefbench import cli

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
import cli_outputs  # noqa: E402

RECORD = TOOLS / "cli_outputs.txt"


def _fields(line):
    """(hash, exit code, command) of one fingerprint line."""
    digest, code, command = line.split(" ", 2)
    return digest, code, command


@pytest.fixture(scope="module")
def record():
    header, *lines = RECORD.read_text().splitlines()
    version = header.removeprefix("# python ")
    return version, [_fields(line) for line in lines]


@pytest.fixture(scope="module")
def runs():
    """[(hash, exit code, command, usage)] of a fresh run, in command order."""
    with pytest.MonkeyPatch.context() as env:
        env.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
        return [(*_fields(line), usage) for line, usage in cli_outputs.fingerprints(cli.main)]


def test_the_record_lists_the_tools_commands_in_order(record, runs):
    recorded = [command for _, _, command in record[1]]
    ran = [command for _, _, command, _ in runs]
    missing = [c for c in ran if c not in recorded]
    stale = [c for c in recorded if c not in ran]
    assert not missing and not stale, f"not recorded: {missing}; no longer run: {stale}"
    assert recorded == ran


def test_every_exit_code_matches_the_record(record, runs):
    moved = [
        f"exit {code} -> {new_code}: {command}"
        for (_, code, command), (_, new_code, _, _) in zip(record[1], runs)
        if code != new_code
    ]
    assert not moved, "\n".join(moved)


def _moved_outputs(record, runs, usage_text):
    return [
        command
        for (digest, _, command), (new_digest, _, _, usage) in zip(record[1], runs)
        if usage == usage_text and digest != new_digest
    ]


def test_every_output_without_usage_text_matches_the_record(record, runs):
    moved = _moved_outputs(record, runs, usage_text=False)
    assert not moved, "output moved:\n" + "\n".join(moved)


def test_usage_text_matches_the_record(record, runs):
    version = record[0]
    if version.split(".")[:2] != list(platform.python_version_tuple()[:2]):
        pytest.skip(f"usage text recorded on Python {version}, not {platform.python_version()}")
    moved = _moved_outputs(record, runs, usage_text=True)
    assert not moved, "output moved:\n" + "\n".join(moved)
