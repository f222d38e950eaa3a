"""What ``import stefbench`` costs: the modules it loads."""

import subprocess
import sys
from pathlib import Path

import mpmath

import stefbench

# Each costs milliseconds at start-up, which every CLI command pays.
# importlib.resources is needed only to read the reference tables, and
# fractions, which loads decimal, by no code of the package.
NOT_AT_IMPORT = ("dataclasses", "inspect", "importlib.resources", "fractions", "decimal")


def test_import_loads_no_dataclasses_inspect_or_resources():
    # -S keeps site-packages' .pth files from preloading modules, so the
    # new modules are exactly those stefbench and mpmath import.
    paths = [str(Path(stefbench.__file__).parents[1]), str(Path(mpmath.__file__).parents[1])]
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]; before = set(sys.modules); "
        "import stefbench; print(*sorted(set(sys.modules) - before))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, *paths],
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(done.stdout.split())
    assert "stefbench" in loaded
    assert loaded.isdisjoint(NOT_AT_IMPORT), sorted(loaded.intersection(NOT_AT_IMPORT))
