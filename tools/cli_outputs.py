"""Fingerprint the CLI's output over a fixed command set.

Usage: python tools/cli_outputs.py CHECKOUT

Imports ``stefbench`` from ``CHECKOUT/src`` and runs every command below
in-process through ``stefbench.cli.main``. Each line printed is

    <sha256 of stdout, NUL, stderr> <exit code> <command>

so ``diff`` of the output for two checkouts lists exactly the commands
whose output or exit code changed. Standard library only.

``tools/cli_outputs.txt`` is this output for the repository's own
checkout, under a first line naming the Python that made it, and
``tests/test_cli_outputs.py`` compares a fresh run with it. A change
that moves output records the file again:

    python -c 'import sys; print("# python", sys.version.split()[0])' > tools/cli_outputs.txt
    python tools/cli_outputs.py . >> tools/cli_outputs.txt
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
    """The argv list of every command, in order."""
    for output in ("text", "json", "csv"):
        yield ["bench", "--output", output]
    yield ["bench", "--output", "json", "--precision-bits", "2048"]
    # CSV of a selection, with more digits per value than at 512 bits.
    yield ["bench", "--output", "csv", "--table", "4", "--precision-bits", "2048"]
    # Every cell diagnosed: at 128 bits some runs stop at the convergence
    # floor within three steps, and the rest take a fourth step from x_3.
    for bits in ("512", "128"):
        yield ["bench", "--output", "json", "--tolerance-orders", "0", "--precision-bits", bits]
    # Wide nets, where a sibling's or a nearby count's quotient exponent
    # decides more of the diagnostics than at the default 2 orders.
    for orders in ("5", "40"):
        yield ["bench", "--output", "json", "--tolerance-orders", orders]
    # Siblings solved for the diagnostics alone.
    yield ["bench", "--output", "json", "--method", "dehghan1"]
    # Every cell diagnosed under a filter: a selected sibling is solved
    # before its own cell, a filtered-out one for the diagnostics alone,
    # and a trace already solved is read again.
    yield ["bench", "--output", "json", "--method", "steffensen", "--method", "mkdf",
           "--tolerance-orders", "0"]
    # One table, one function at 2048 bits, and a precision at which some
    # runs stop early: the replay's shared points differ in each.
    yield ["bench", "--output", "json", "--table", "6"]
    yield ["bench", "--output", "json", "--function", "f5", "--precision-bits", "2048"]
    yield ["bench", "--output", "json", "--precision-bits", "64"]
    for method in METHODS:
        for name in BUILTINS:
            yield ["solve", "--method", method, "--function", name, "--format", "json"]
            yield ["solve", "--method", method, "--function", name, "--iterations", "3"]
    # CSV of a trace with rows; the CSV of an empty trace is further down.
    yield ["solve", "--method", "mkdf", "--function", "f3", "--format", "csv"]
    for bits in ("512", "4096"):
        # Every kernel's rho at 4096 bits, where coc's logarithms are taken
        # far below the working precision.
        for method in ("mkdf", "cordero", "kou") if bits == "512" else METHODS:
            for name in BUILTINS:
                yield ["coc", "--method", method, "--function", name, "--precision-bits", bits]
        for name in BUILTINS:
            yield ["constant", "--function", name, "--precision-bits", bits]
    yield ["constant", "--expr", "x + x^2"]
    yield ["constant", "--expr", "exp(x) - 2", "--x0", "0.7"]
    # A refinement whose 704-bit rung fails, so the full-precision solve
    # starts again from the seed and fails too.
    yield ["constant", "--expr", "x^2 + 1", "--x0", "0.5", "--precision-bits", "2048"]
    # A root where every c_k above c1 is zero: no ratio, no agreement.
    yield ["constant", "--expr", "x - 0.5", "--x0", "0.3"]
    # The top of the precision range, with values of 4935 digits.
    yield ["solve", "--method", "mkdf", "--function", "f3", "--precision-bits", "16384",
           "--format", "json"]
    yield ["coc", "--method", "mkdf", "--function", "f3", "--precision-bits", "16384"]
    # Floors, each 2^-ceil(k*bits/d). A residual under 2^(-0.95*1128) but
    # above 2^-1072, which takes one more step and breaks down; a 159-bit
    # run that converges and an 83-bit one that breaks down, each within
    # half a bit of a floor; a residual between the two floors; a
    # precision at which 2^(-0.9*bits) is hard to round; and a context at
    # MAX_BITS with one step.
    yield ["solve", "--method", "jain", "--function", "f3", "--precision-bits", "1128"]
    yield ["solve", "--method", "steffensen", "--function", "f3", "--precision-bits", "159"]
    yield ["solve", "--method", "dehghan2", "--function", "f3", "--precision-bits", "83"]
    yield ["solve", "--method", "mkdf", "--function", "f2", "--x0", "0.7", "--precision-bits", "1792"]
    yield ["coc", "--method", "mkdf", "--function", "f3", "--precision-bits", "3037"]
    yield ["solve", "--method", "mkdf", "--expr", "x^2 - 2", "--x0", "1", "--precision-bits", "65536",
           "--iterations", "1"]
    # The order path's edges: exactly one rho, errors that fall below the
    # usability floor mid-run, one ratio, and a run that stops at x0.
    yield ["coc", "--method", "mkdf", "--function", "f3", "--iterations", "2"]
    yield ["coc", "--method", "steffensen", "--function", "f1", "--iterations", "12"]
    yield ["constant", "--function", "f3", "--iterations", "1"]
    yield ["coc", "--method", "mkdf", "--function", "f5", "--x0", "1e200"]
    # The scalar path, order-1 jets, and order-4 jets at two precisions.
    for method in ("mkdf", "kou"):
        yield ["solve", "--method", method, "--expr", EVERY_RULE, "--x0", "1.2", "--format", "json"]
    for bits in ("512", "4096"):
        yield ["constant", "--expr", EVERY_RULE, "--x0", "1.2", "--precision-bits", bits]
    # The scalar path and order-1 jets at the lowest precision and a high one.
    for bits in ("64", "2048"):
        for method in ("mkdf", "kou"):
            yield ["solve", "--method", method, "--expr", EVERY_RULE, "--x0", "1.2", "--format", "json",
                   "--precision-bits", bits]
    yield ["list"]
    # The usage and failure cases of tests/test_cli.py.
    yield []
    yield ["solve", "--help"]
    yield ["solve", "--method", "mkdf", "--expr", "x^2 - 2"]
    yield ["solve", "--method", "mkdf", "--function", "f1", "--expr", "x"]
    yield ["solve", "--method", "newton", "--function", "f1"]
    yield ["solve", "--method", "mkdf", "--function", "f1", "--theta", "-1"]
    yield ["solve", "--method", "kou", "--function", "f1", "--theta", "abc"]
    for option in ("--x0", "--tol"):
        for value in ("nan", "inf", "-inf"):
            yield ["solve", "--method", "mkdf", "--function", "f3", f"{option}={value}"]
    for value in ("nan", "inf", "-inf", "1e400"):
        yield ["solve", "--method", "kou", "--function", "f3", f"--theta={value}"]
    # A fractional theta, read from its text at working precision: still
    # third order, and the JSON iterates are those of the exact 0.1.
    yield ["coc", "--method", "kou", "--theta", "0.1", "--function", "f3", "--precision-bits", "4096",
           "--iterations", "8"]
    yield ["solve", "--method", "kou", "--theta", "0.1", "--function", "f3", "--format", "json",
           "--iterations", "3"]
    # theta = -1 written with a point, whose claimed order is still 4.
    yield ["coc", "--method", "kou", "--theta=-1.0", "--function", "f3"]
    yield ["solve", "--method", "steffensen", "--function", "f6", "--max-iterations", "5"]
    # A run that ends diverged, and a printed x_1 whose five digits round
    # up to the next power of ten (0.99999...e+0 shows as 0.10000e+1).
    diverging = ["solve", "--method", "kou", "--function", "f3", "--x0", "30", "--precision-bits", "64"]
    yield diverging
    yield [*diverging, "--format", "json"]
    yield ["solve", "--method", "mkdf", "--expr", "x - 0.9999996", "--x0", "0", "--iterations", "1"]
    # An exact tie at the sixth digit: x0 = 1.03125 shows as 0.10313e+1.
    yield ["solve", "--method", "mkdf", "--expr", "x - 1", "--x0", "1.03125", "--iterations", "1"]
    # |f(x0)| with a decimal exponent of 22 digits, more than 64 bits carry.
    yield ["solve", "--method", "mkdf", "--expr", "exp(exp(x))^1000", "--x0", "44.3",
           "--precision-bits", "64", "--iterations", "1"]
    yield ["solve", "--method", "mkdf", "--expr", "x^2 + 1", "--x0", "0", "--format", "json"]
    # Differences above the breakdown floor whose slope lies below it.
    yield ["solve", "--method", "mkdf", "--expr", "x^2 + 1.5e-139*x + 1", "--x0", "0"]
    yield ["solve", "--method", "kou_fd", "--expr", "x^2 - 2*x + 2 + 1.5e-139*x", "--x0", "0"]
    yield ["solve", "--method", "steffensen", "--expr", "ln(x)", "--x0", "0.5"]
    yield ["solve", "--method", "mkdf", "--expr", "ln(x)", "--x0", "-1"]
    yield ["solve", "--method", "mkdf", "--expr", "ln(x)", "--x0", "-1", "--format", "csv"]
    # A domain error that names a full 16384-bit mantissa.
    for output in ("text", "json"):
        yield ["solve", "--method", "mkdf", "--expr", "ln(x)", "--x0=-1e-1200", "--precision-bits",
               "16384", "--format", output]
    # The scalar path's other DomainErrors: division by zero, zero to a
    # negative power, sqrt of a negative value and sin beyond 2^bits.
    for expr, x0 in (("1/(x - 1)", "1"), ("x^-1", "0"), ("sqrt(x - 2)", "0")):
        yield ["solve", "--method", "mkdf", "--expr", expr, "--x0", x0]
    yield ["solve", "--method", "mkdf", "--expr", "sin(x)", "--x0", "1e30", "--precision-bits", "64"]
    # The jets' own DomainErrors, where kou's slope is not differentiable.
    for expr in ("sqrt(x) - 1", "abs(x) - 1"):
        for output in ("text", "json"):
            yield ["solve", "--method", "kou", "--expr", expr, "--x0", "0", "--format", output]
    # Parse errors: a missing operand, a non-integer exponent, an exponent
    # too long for int, an unknown function and an unknown character.
    for expr in ("x +", "x^0.5", "x^" + "9" * 5000, "foo(x)"):
        yield ["solve", "--method", "mkdf", "--expr", expr, "--x0", "1"]
    yield ["constant", "--expr", "2 $ x"]
    # The parser's other refusals: an unclosed call, 101 nested parentheses,
    # two operands in a row, an exponent that is no literal and a blank.
    for expr in ("sin(x", "(" * 101 + "x" + ")" * 101, "x x", "x^x", " "):
        yield ["solve", "--method", "mkdf", "--expr", expr, "--x0", "1"]
    # A decimal exponent too long for int, as --x0 and as a literal.
    yield ["solve", "--method", "mkdf", "--function", "f3", "--x0", "1e" + "9" * 5000]
    yield ["solve", "--method", "mkdf", "--expr", "x - 1e" + "9" * 5000, "--x0", "1"]
    # Exponents that int() reads but beyond the reader's bound of 362144.
    yield ["solve", "--method", "mkdf", "--function", "f3", "--x0", "1e" + "9" * 4000]
    yield ["solve", "--method", "mkdf", "--expr", "x - 1e-400000", "--x0", "1"]
    # Decimal text with only zeros after a bare point, as --x0 and as a
    # literal. Text that is not a number: a fraction, a bare point, a space
    # before an exponent of 4000 digits, a non-ASCII digit in a literal and
    # an underscore in --theta.
    yield ["solve", "--method", "mkdf", "--expr", "x", "--x0", ".0"]
    yield ["solve", "--method", "mkdf", "--expr", "x - .0", "--x0", "1"]
    yield ["solve", "--method", "mkdf", "--function", "f3", "--x0", "1/3"]
    yield ["solve", "--method", "mkdf", "--function", "f3", "--x0=."]
    yield ["solve", "--method", "mkdf", "--function", "f3", "--x0", " 1e" + "9" * 4000]
    yield ["solve", "--method", "mkdf", "--expr", "x - \u0663", "--x0", "1"]
    yield ["solve", "--method", "kou", "--function", "f3", "--theta=1_0"]
    # A long refused number, echoed by its first 40 characters and its length.
    yield ["solve", "--method", "mkdf", "--function", "f3", "--x0", "1" * 20000 + "x"]
    # A non-finite name in capitals, which mpmath reads.
    yield ["solve", "--method", "mkdf", "--function", "f3", "--x0=INF"]
    yield ["solve", "--method", "mkdf", "--function", "f1", "--iterations", "0"]
    yield ["solve", "--method", "mkdf", "--function", "f3", "--max-iterations", "0"]
    # A tolerance below the convergence floor, which no run can meet.
    yield ["solve", "--method", "mkdf", "--function", "f3", "--tol", "1e-1000"]
    yield ["solve", "--method", "mkdf", "--function", "f3", "--iterations", "3", "--tol", "1e-3"]
    yield ["solve", "--method", "mkdf", "--function", "f1", "--iterations", "3",
           "--max-iterations", "1"]
    for bits in ("32", "65537", "1000000000"):
        yield ["solve", "--method", "mkdf", "--function", "f3", "--precision-bits", bits]
    yield ["bench", "--table", "2", "--function", "f3"]
    yield ["bench", "--table", "7", "--method", "mkdf", "--tolerance-orders", "0.5"]
    for option, value in (
        ("--tolerance-orders", "nan"),
        ("--tolerance-orders", "inf"),
        ("--tolerance-orders", "-1"),
        ("--threshold", "nan"),
        ("--threshold", "-1"),
        ("--threshold", "1.5"),
    ):
        yield ["bench", "--table", "4", "--method", "mkdf", f"{option}={value}"]
    # Text that int() or float() reads but ctx.mpf does not, one per kind of
    # numeric flag: a space, a non-ASCII digit and an underscore.
    yield ["solve", "--method", "mkdf", "--function", "f3", "--precision-bits", " 64"]
    yield ["solve", "--method", "mkdf", "--function", "f3", "--iterations", "\u0661"]
    yield ["solve", "--method", "mkdf", "--function", "f3", "--max-iterations", "1_0"]
    yield ["bench", "--table", "\u0664"]
    yield ["bench", "--table", "4", "--method", "mkdf", "--tolerance-orders", "2_0"]
    yield ["bench", "--table", "4", "--method", "mkdf", "--threshold", "\u0660.\u0665"]
    # A step count past the driver's bound of 10000.
    yield ["solve", "--method", "mkdf", "--function", "f3", "--iterations", "10001"]
    # Step counts that solve refuses, at the top precision, where refining
    # the root before refusing them took more than a second.
    yield ["coc", "--method", "mkdf", "--function", "f7", "--iterations", "0", "--precision-bits", "65536"]
    yield ["constant", "--function", "f7", "--iterations", "10001", "--precision-bits", "65536"]
    # A theta at the exponent bound, read once for a run of 100 steps.
    yield ["solve", "--method", "kou", "--theta", "1e-362144", "--expr", "x^2 + 1", "--x0", "0.5",
           "--precision-bits", "64", "--iterations", "100"]
    yield ["coc", "--method", "mkdf", "--function", "f3", "--iterations", "1"]
    yield ["constant", "--expr", "x^2 + 1"]
    yield ["constant", "--expr", "abs(x - 1)", "--x0", "1"]
    yield ["constant", "--expr", "sqrt(x)", "--x0", "0"]


def _run(main, argv):
    """The fingerprint line of one command, and whether its output holds
    argparse's usage text, which changes between Python versions."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    text = f"{out.getvalue()}\0{err.getvalue()}"
    digest = hashlib.sha256(text.encode()).hexdigest()
    return f"{digest} {code} stefbench {shlex.join(argv)}", "usage:" in text


def fingerprints(main):
    """Yield (line, usage) for every command, run in order through ``main``.

    The caller sets COLUMNS=80, as ``main`` below does.
    """
    for command in _commands():
        yield _run(main, command)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = (Path(argv[0]) / "src").resolve()
    sys.path.insert(0, str(src))
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    sys.stdout.reconfigure(encoding="utf-8")  # a command holds a non-ASCII digit
    from stefbench import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: stefbench was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    for line, _ in fingerprints(cli.main):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
