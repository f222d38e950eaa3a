"""Fingerprint the CLI's output over a fixed command set.

Usage: python tools/cli_outputs.py CHECKOUT

Imports ``stefbench`` from ``CHECKOUT/src`` and runs every command below
in-process through ``stefbench.cli.main``. Each line printed is

    <sha256 of stdout, NUL, stderr> <exit code> <command>

so ``diff`` of the output for two checkouts lists exactly the commands
whose output or exit code changed. Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
from pathlib import Path

# Spelled out rather than read from the checkout, so both sides run the same commands.
BUILTINS = [f"f{i}" for i in range(1, 8)]
METHODS = ["steffensen", "jain", "dehghan1", "dehghan2", "dehghan3", "cordero", "mkdf", "kou", "kou_fd"]
# Every function of the grammar, a negative power and a unary minus; the
# built-ins use no sqrt, abs or negative power. Its root is near 1.25.
EVERY_RULE = "sqrt(x + 3) + abs(x - 3)/exp(x) + arctan(x)*x^-2 - ln(x)*sin(x)*cos(-x) - 3.07"


def _commands():
    """(argv, env) pairs; env is added to a STEFBENCH_PRECISION_BITS-free environment."""
    for output in ("text", "json", "csv"):
        yield ["bench", "--output", output], {}
    yield ["bench", "--output", "json", "--precision-bits", "2048"], {}
    # Every cell diagnosed: at 128 bits some runs stop at the convergence
    # floor within three steps, and the rest take a fourth step from x_3.
    for bits in ("512", "128"):
        yield ["bench", "--output", "json", "--tolerance-orders", "0", "--precision-bits", bits], {}
    # Wide nets, where a sibling's or a nearby count's quotient exponent
    # decides more of the diagnostics than at the default 2 orders.
    for orders in ("5", "40"):
        yield ["bench", "--output", "json", "--tolerance-orders", orders], {}
    # Siblings solved for the diagnostics alone.
    yield ["bench", "--output", "json", "--method", "dehghan1"], {}
    # One table, one function at 2048 bits, and a precision at which some
    # runs stop early: the replay's shared points differ in each.
    yield ["bench", "--output", "json", "--table", "6"], {}
    yield ["bench", "--output", "json", "--function", "f5", "--precision-bits", "2048"], {}
    yield ["bench", "--output", "json", "--precision-bits", "64"], {}
    for method in METHODS:
        for name in BUILTINS:
            yield ["solve", "--method", method, "--function", name, "--format", "json"], {}
            yield ["solve", "--method", method, "--function", name, "--iterations", "3"], {}
    for bits in ("512", "4096"):
        for method in ("mkdf", "cordero", "kou"):
            for name in BUILTINS:
                yield ["coc", "--method", method, "--function", name, "--precision-bits", bits], {}
        for name in BUILTINS:
            yield ["constant", "--function", name, "--precision-bits", bits], {}
    yield ["constant", "--expr", "x + x^2"], {}
    yield ["constant", "--expr", "exp(x) - 2", "--x0", "0.7"], {}
    # The scalar path, order-1 jets, and order-4 jets at two precisions.
    for method in ("mkdf", "kou"):
        yield ["solve", "--method", method, "--expr", EVERY_RULE, "--x0", "1.2", "--format", "json"], {}
    for bits in ("512", "4096"):
        yield ["constant", "--expr", EVERY_RULE, "--x0", "1.2", "--precision-bits", bits], {}
    yield ["list"], {}
    # The usage and failure cases of tests/test_cli.py.
    yield [], {}
    yield ["solve", "--help"], {}
    yield ["solve", "--method", "mkdf", "--expr", "x^2 - 2"], {}
    yield ["solve", "--method", "mkdf", "--function", "f1", "--expr", "x"], {}
    yield ["solve", "--method", "newton", "--function", "f1"], {}
    yield ["solve", "--method", "mkdf", "--function", "f1", "--theta", "-1"], {}
    yield ["solve", "--method", "kou", "--function", "f1", "--theta", "abc"], {}
    for option in ("--x0", "--tol"):
        for value in ("nan", "inf", "-inf"):
            yield ["solve", "--method", "mkdf", "--function", "f3", f"{option}={value}"], {}
    for value in ("nan", "inf", "-inf", "1e400"):
        yield ["solve", "--method", "kou", "--function", "f3", f"--theta={value}"], {}
    yield ["solve", "--method", "steffensen", "--function", "f6", "--max-iterations", "5"], {}
    yield ["solve", "--method", "mkdf", "--expr", "x^2 + 1", "--x0", "0", "--format", "json"], {}
    yield ["solve", "--method", "steffensen", "--expr", "ln(x)", "--x0", "0.5"], {}
    yield ["solve", "--method", "mkdf", "--expr", "ln(x)", "--x0", "-1"], {}
    yield ["solve", "--method", "mkdf", "--expr", "ln(x)", "--x0", "-1", "--format", "csv"], {}
    yield ["solve", "--method", "mkdf", "--function", "f1", "--iterations", "0"], {}
    yield ["solve", "--method", "mkdf", "--function", "f3", "--iterations", "3", "--tol", "1e-3"], {}
    yield ["solve", "--method", "mkdf", "--function", "f1", "--iterations", "3",
           "--max-iterations", "1"], {}
    yield ["solve", "--method", "mkdf", "--function", "f3"], {"STEFBENCH_PRECISION_BITS": "puppies"}
    yield ["solve", "--method", "mkdf", "--function", "f3", "--precision-bits", "32"], {}
    yield ["bench", "--table", "2", "--function", "f3"], {}
    yield ["bench", "--table", "7", "--method", "mkdf", "--tolerance-orders", "0.5"], {}
    for option, value in (
        ("--tolerance-orders", "nan"),
        ("--tolerance-orders", "inf"),
        ("--tolerance-orders", "-1"),
        ("--threshold", "nan"),
        ("--threshold", "-1"),
        ("--threshold", "1.5"),
    ):
        yield ["bench", "--table", "4", "--method", "mkdf", f"{option}={value}"], {}
    yield ["coc", "--method", "mkdf", "--function", "f3", "--iterations", "1"], {}
    yield ["constant", "--expr", "x^2 + 1"], {}
    yield ["constant", "--expr", "abs(x - 1)", "--x0", "1"], {}
    yield ["constant", "--expr", "sqrt(x)", "--x0", "0"], {}


def _run(main, argv, env):
    out, err = io.StringIO(), io.StringIO()
    os.environ.update(env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors and --help
                code = exc.code
    finally:
        for name in env:
            del os.environ[name]
    digest = hashlib.sha256(f"{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()
    shown = " ".join(f"{k}={shlex.quote(v)}" for k, v in env.items())
    return f"{digest} {code} {(shown + ' ') if shown else ''}stefbench {shlex.join(argv)}"


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = (Path(argv[0]) / "src").resolve()
    sys.path.insert(0, str(src))
    os.environ.pop("STEFBENCH_PRECISION_BITS", None)
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    from stefbench import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: stefbench was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    for command, env in _commands():
        print(_run(cli.main, command, env), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
