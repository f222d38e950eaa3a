"""The command-line surface."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import stefbench
from stefbench import (
    BUILTINS,
    FUNCTION_NAMES,
    METHOD_TAGS,
    PrecisionContext,
    kou_step,
    load_reference_cells,
    run_benchmark,
)
from stefbench.cli import main
from stefbench.driver import MAX_ITERATIONS, MAX_STEPS


# -- solve --------------------------------------------------------------


def test_solve_text_fixed_iterations(capsys):
    rc = main(["solve", "--method", "mkdf", "--function", "f1", "--iterations", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0.47200e-25" in out
    assert "status: fixed_count_completed after 3 iterations (13 f-calls)" in out


def test_solve_text_counts_jet_calls_only_when_there_are_some(capsys):
    rc = main(["solve", "--method", "kou", "--function", "f3", "--iterations", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status: fixed_count_completed after 2 iterations (5 f-calls, 2 jet calls)" in out


def test_solve_text_counts_one_in_the_singular(capsys):
    rc = main(["solve", "--method", "kou", "--function", "f3", "--iterations", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status: fixed_count_completed after 1 iteration (3 f-calls, 1 jet call)" in out


def test_solve_json_payload(capsys):
    rc = main(
        ["solve", "--method", "mkdf", "--function", "f1", "--iterations", "3", "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert set(payload) == {
        "method",
        "function",
        "x0",
        "precision_bits",
        "status",
        "detail",
        "f_call_total",
        "jet_call_total",
        "iterates",
    }
    assert payload["detail"] is None
    assert payload["precision_bits"] == 512
    assert payload["f_call_total"] == 13
    assert payload["jet_call_total"] == 0
    assert [t["n"] for t in payload["iterates"]] == [0, 1, 2, 3]
    assert all(set(t) == {"n", "x", "fx"} for t in payload["iterates"])


def test_solve_csv_trace(capsys):
    rc = main(
        ["solve", "--method", "mkdf", "--function", "f1", "--iterations", "3", "--format", "csv"]
    )
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rc == 0
    assert rows[0] == ["n", "x", "fx"]
    assert len(rows) == 5


def test_solve_runs_to_the_default_tolerance(capsys):
    rc = main(["solve", "--method", "mkdf", "--function", "f3"])
    assert rc == 0
    assert "status: converged" in capsys.readouterr().out


def test_solve_reports_nonconvergence(capsys):
    rc = main(["solve", "--method", "steffensen", "--function", "f6", "--max-iterations", "5"])
    assert rc == 1
    assert "status: max_iterations_reached" in capsys.readouterr().out


def test_solve_expression_target(capsys):
    # The default tolerance sits below where the central difference of
    # this expression breaks down, so pin an explicit one.
    argv = ["solve", "--method", "mkdf", "--expr", "x^2 - 2", "--x0", "1", "--tol", "1e-100"]
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    assert "0.14142e+1" in out
    assert "status: converged" in out


def test_solve_expression_requires_a_start(capsys):
    rc = main(["solve", "--method", "mkdf", "--expr", "x^2 - 2"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "text, position",
    [
        ("(" * 200 + "x" + ")" * 200, 99),
        ("sin(" * 200 + "x" + ")" * 200, 396),
        ("-" * 1000 + "x", 99),
        ("+".join(["x"] * 1000), 199),
    ],
    ids=["parentheses", "calls", "unary-minus", "left-deep-sum"],
)
def test_a_too_deep_expression_is_a_usage_error(capsys, text, position):
    # '=' keeps argparse from reading the leading '-' of a text as an option.
    rc = main(["solve", "--method", "mkdf", f"--expr={text}", "--x0", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: expression nested deeper than 100 levels at position {position}\n"


def test_every_usage_error_is_a_value_error():
    # main maps a ValueError to exit 2 and any other StefbenchError to 1.
    assert issubclass(stefbench.InvalidPrecisionError, ValueError)
    assert issubclass(stefbench.ParseError, ValueError)
    assert not issubclass(stefbench.DomainError, ValueError)


def test_expression_and_builtin_are_mutually_exclusive():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--method", "mkdf", "--function", "f1", "--expr", "x"])
    assert exc.value.code == 2


def test_unknown_method_is_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--method", "newton", "--function", "f1"])
    assert exc.value.code == 2


def test_a_subcommand_is_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_theta_only_applies_to_kou(capsys):
    rc = main(["solve", "--method", "mkdf", "--function", "f1", "--theta", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: theta only applies to kou, not 'mkdf'\n"


def test_theta_must_be_numeric(capsys):
    # Only decimal text, as --x0 takes it less its non-finite names
    # (test_non_finite_inputs_are_usage_errors): int() would read all but "abc".
    for theta in ("abc", "٣", " 1", "1_0"):
        rc = main(["solve", "--method", "kou", "--function", "f1", f"--theta={theta}"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: not a decimal number: {theta!r}\n"
    # Read at working precision, where it is finite: the run takes a step
    # far beyond 2^512 and ends with a domain error in cos.
    rc = main(["solve", "--method", "kou", "--function", "f3", "--theta=1e400", "--format", "json"])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["status"] == "domain_error"


def test_kou_with_a_fractional_theta_keeps_third_order(capsys):
    # 1 - 0.1 rounded in binary64 would add a first-order term to the error.
    argv = ["coc", "--method", "kou", "--theta", "0.1", "--function", "f3"]
    assert main(argv + ["--precision-bits", "4096", "--iterations", "8"]) == 0
    out = capsys.readouterr().out
    final = next(line for line in out.splitlines() if line.startswith("final rho = "))
    assert abs(float(final.split()[3]) - 3) < 1e-3
    assert "claimed order: 3" in out
    # theta enters the step as ctx.mpf("0.1"), not as the binary64 0.1.
    argv = ["solve", "--method", "kou", "--theta", "0.1", "--function", "f3", "--format", "json"]
    assert main(argv + ["--iterations", "1"]) == 0
    x1 = json.loads(capsys.readouterr().out)["iterates"][1]["x"]
    ctx, f = PrecisionContext(512), BUILTINS["f3"]
    x0 = ctx.mpf(f.default_x0)
    fx0 = f(x0, ctx)
    expected = kou_step(f, x0, fx0, ctx.mpf("0.1"), f.eval_jet(x0, 1, ctx)[1], ctx)
    assert ctx.mpf(x1) == expected


def test_kou_with_unit_theta(capsys):
    rc = main(["solve", "--method", "kou", "--theta", "1", "--function", "f3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "kou(theta=1)" in out
    assert "status: converged" in out


@pytest.mark.parametrize(
    "method, option, value",
    [
        *(("mkdf", option, v) for option in ("--x0", "--tol") for v in ("nan", "inf", "-inf")),
        *(("kou", "--theta", v) for v in ("nan", "inf", "-inf")),
    ],
)
def test_non_finite_inputs_are_usage_errors(capsys, method, option, value):
    # ctx.mpf hands the names to mpmath, which reads them; --theta takes
    # decimal text only and refuses them as text.
    rc = main(["solve", "--method", method, "--function", "f3", f"{option}={value}"])
    assert rc == 2
    err = capsys.readouterr().err
    if option == "--theta":
        assert err == f"error: not a decimal number: {value!r}\n"
    else:
        assert "must be finite" in err


def test_solve_reports_why_it_stopped(capsys):
    rc = main(["solve", "--method", "mkdf", "--expr", "x^2 + 1", "--x0", "0", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["status"] == "denominator_breakdown"
    assert payload["detail"].startswith("denominator f(x+f(x)) - f(x-f(x)) fell below")
    rc = main(["solve", "--method", "steffensen", "--expr", "ln(x)", "--x0", "0.5"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert lines[-2].startswith("status: domain_error")
    assert lines[-1].startswith("detail: ln of non-positive value")


def test_a_runaway_exponential_ends_in_a_domain_error():
    # f(1) = 3.8e6, and the probe x + f(x) sends exp(exp(x)) to about
    # 10^(1.65e6), far beyond 2^512. A separate process with a timeout keeps
    # a regression from hanging the suite.
    src = str(Path(stefbench.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["solve", "--method", "mkdf", "--expr", "exp(exp(exp(x)))", "--x0", "1",
            "--iterations", "3", "--format", "json"]
    code = "import sys; from stefbench.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=10
    )
    payload = json.loads(done.stdout)
    assert done.returncode == 1
    assert payload["precision_bits"] == 512
    assert payload["status"] == "domain_error"
    assert payload["detail"].startswith("exp of ")
    assert ">= 2^512" in payload["detail"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_domain_error_at_the_top_precisions_names_its_argument(capsys, fmt):
    # -1e-1200 has a full 16384-bit mantissa, which mpmath's own nstr cannot print.
    argv = ["solve", "--method", "mkdf", "--expr", "ln(x)", "--x0=-1e-1200",
            "--precision-bits", "16384", "--format", fmt]
    assert main(argv) == 1
    out = capsys.readouterr().out
    detail = "ln of non-positive value -1.0e-1200 in 'ln(x)'"
    if fmt == "json":
        payload = json.loads(out)
        assert (payload["status"], payload["detail"]) == ("domain_error", detail)
    else:
        assert out.splitlines()[-2:] == [
            "status: domain_error after 0 iterations (1 f-call)",
            f"detail: {detail}",
        ]


def test_a_closed_stdout_pipe_ends_with_exit_1_and_no_traceback():
    # As in `stefbench solve ... | head -c 700`, but the reader closes its
    # end before the run starts, so the first write fails whatever the
    # pipe's buffer size.
    src = str(Path(stefbench.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["solve", "--method", "mkdf", "--function", "f1", "--format", "json",
            "--precision-bits", "4096"]
    code = "import sys; from stefbench.cli import main; sys.exit(main(sys.argv[1:]))"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=30,
        )
    finally:
        os.close(write_end)
    # No traceback, and no "Exception ignored" from the flush at exit.
    assert (done.returncode, done.stderr) == (1, "")


def test_zero_fixed_iterations_is_a_usage_error(capsys):
    rc = main(["solve", "--method", "mkdf", "--function", "f1", "--iterations", "0"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_tol_with_fixed_iterations_is_a_usage_error(capsys):
    # |f3(x_1)| is already below 1e-3, so a silently ignored --tol would
    # show as a third step the user asked not to run.
    argv = ["solve", "--method", "mkdf", "--function", "f3", "--iterations", "3", "--tol", "1e-3"]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: f_tolerance does not apply to a fixed-count run\n"


def test_max_iterations_with_fixed_iterations_is_a_usage_error(capsys):
    argv = ["solve", "--method", "mkdf", "--function", "f1", "--iterations", "3",
            "--max-iterations", "1"]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: max_iterations does not apply to a fixed-count run\n"


def test_max_iterations_help_reads_the_library_default(capsys):
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"(default {MAX_ITERATIONS})" in text
    # --iterations names the driver's bound and that a run may stop early.
    assert f"run N steps (N <= {MAX_STEPS}), fewer if |f| reaches the convergence floor" in text


# -- precision plumbing --------------------------------------------------


def _solved_bits(capsys, argv):
    rc = main(argv + ["--format", "json"])
    assert rc == 0
    return json.loads(capsys.readouterr().out)["precision_bits"]


def test_precision_bits_flag(capsys):
    argv = ["solve", "--method", "mkdf", "--function", "f3", "--precision-bits", "128"]
    assert _solved_bits(capsys, argv) == 128
    # A sign and leading zeros are decimal text, as int() reads them.
    for bits in ("+64", "064"):
        assert _solved_bits(capsys, [*argv[:-1], bits]) == 64


# Every numeric flag: (the command before it, the flag, its argparse type name).
NUMERIC_FLAGS = [
    (["solve", "--method", "mkdf", "--function", "f3"], "--precision-bits", "int"),
    (["solve", "--method", "mkdf", "--function", "f3"], "--iterations", "int"),
    (["solve", "--method", "mkdf", "--function", "f3"], "--max-iterations", "int"),
    (["coc", "--method", "mkdf", "--function", "f3"], "--iterations", "int"),
    (["constant", "--function", "f3"], "--iterations", "int"),
    (["bench"], "--table", "int"),
    (["bench"], "--tolerance-orders", "float"),
    (["bench"], "--threshold", "float"),
]


@pytest.mark.parametrize(
    "argv, flag, kind, text",
    [
        pytest.param(argv, flag, kind, text, id=f"{argv[0]} {flag}={text!r}")
        for argv, flag, kind in NUMERIC_FLAGS
        # int() and float() read each of these; ctx.mpf reads none.
        for text in ((" 64", "6_4", "\u0661") if kind == "int" else
                     (" 0.5", "6_4", "\u0660.\u0665", "Infinity"))
    ],
)
def test_numeric_flags_take_only_decimal_text(capsys, argv, flag, kind, text):
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"{flag}={text}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert last == f"stefbench {argv[0]}: error: argument {flag}: invalid {kind} value: {text!r}"


def test_the_environment_does_not_set_the_precision(capsys, monkeypatch):
    # The command line is the whole input: no environment variable sets the precision.
    for value in ("puppies", "256"):
        monkeypatch.setenv("STEFBENCH_PRECISION_BITS", value)
        assert _solved_bits(capsys, ["solve", "--method", "mkdf", "--function", "f3"]) == 512


def test_too_few_bits_is_a_usage_error(capsys):
    rc = main(["solve", "--method", "mkdf", "--function", "f3", "--precision-bits", "32"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("bits", ["65537", "1000000000"])
def test_too_many_bits_is_a_usage_error(capsys, bits):
    rc = main(["solve", "--method", "mkdf", "--function", "f3", "--precision-bits", bits])
    assert rc == 2
    assert capsys.readouterr().err == f"error: precision must be at most 65536 bits, got {bits}\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["--function", "f3", "--x0", "1e" + "9" * 5000], "exponent of 5000 digits is too long"),
        (
            ["--expr", "x - 1e" + "9" * 5000, "--x0", "1"],
            "exponent of 5000 digits is too long at position 4",
        ),
        # int() reads these exponents, and mpmath's reader took 41 s for the first.
        (["--function", "f3", "--x0", "1e" + "9" * 4000], "decimal exponent beyond +-362144"),
        (
            ["--expr", "x - 1e-400000", "--x0", "1"],
            "decimal exponent beyond +-362144 at position 4",
        ),
    ],
    ids=["x0", "expr", "x0-beyond-bound", "expr-beyond-bound"],
)
def test_an_exponent_too_long_to_read_is_a_usage_error(capsys, argv, err):
    start = time.perf_counter()
    assert main(["solve", "--method", "mkdf", *argv]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"error: {err}\n"


# -- table notation -------------------------------------------------------


@pytest.mark.parametrize(
    "value, rendered",
    [
        ("0.000047200123", "0.47200e-4"),
        ("0.999999", "0.10000e+1"),
        ("0", "0.00000e+0"),
        ("-0.00027307", "-0.27307e-3"),
        ("77.299", "0.77299e+2"),
        ("0.99999949", "0.10000e+1"),
        ("inf", "+inf"),
        ("-inf", "-inf"),
        ("nan", "nan"),
    ],
)
def test_format_paper(ctx, value, rendered):
    assert ctx.paper_str(ctx.mpf(value)) == rendered


def test_format_paper_round_trips_the_reference_values(ctx):
    for cell in load_reference_cells():
        assert ctx.paper_str(ctx.mpf(cell.paper_value)) == cell.paper_value


# -- bench ----------------------------------------------------------------


def test_bench_json_single_cell(capsys):
    rc = main(["bench", "--table", "4", "--method", "mkdf", "--output", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert set(payload) == {
        "records",
        "diagnostics",
        "matched",
        "total",
        "match_rate",
        "threshold",
    }
    assert payload["diagnostics"] == []
    assert payload["matched"] == 1
    assert payload["total"] == 1
    record = payload["records"][0]
    assert set(record) == {
        "table",
        "method",
        "function",
        "x0",
        "paper_value",
        "computed_value",
        "log10_discrepancy",
        "status",
        "match",
    }
    assert record["match"] is True
    assert record["function"] == "f3"


def _count(n, noun):
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


def _bench_text_from(payload, ctx):
    """The text ``bench`` prints, rebuilt from its ``--output json`` payload alone."""
    lines = [
        f"{'table':>5}  {'method':<11}  {'fn':<3}  {'paper':<13}  "
        f"{'computed':<13}  {'dlog':>7}  {'status':<22}  match"
    ]
    paper = {}
    for r in payload["records"]:
        paper[r["table"], r["method"], r["function"]] = r["paper_value"]
        dlog = r["log10_discrepancy"]
        lines.append(
            f"{r['table']:>5}  {r['method']:<11}  {r['function']:<3}  {r['paper_value']:<13}  "
            f"{ctx.paper_str(ctx.mpf(r['computed_value'])):<13}  "
            f"{'n/a' if dlog is None else f'{dlog:+7.2f}':>7}  {r['status']:<22}  "
            f"{'yes' if r['match'] else 'NO'}"
        )
    if payload["diagnostics"]:
        lines += ["", "mismatched cells:"]
    for d in payload["diagnostics"]:
        cell = paper[d["table"], d["method"], d["function"]]
        lines.append(f"  table {d['table']} {d['method']} on {d['function']}: paper {cell}")
        for n, dlog in d["better_counts"]:
            lines.append(f"    closer at {_count(n, 'iteration')} (dlog {dlog:+.2f})")
        for tag, dlog in d["alt_methods"]:
            lines.append(
                f"    same-table agreement: {tag} computed matches this cell (dlog {dlog:+.2f})"
            )
        if not d["better_counts"] and not d["alt_methods"]:
            lines.append("    no nearby iteration count or sibling method agrees")
    rate, threshold = payload["match_rate"], payload["threshold"]
    lines += [
        "",
        f"matched {payload['matched']}/{payload['total']} cells ({100 * rate:.1f}%); "
        f"threshold {100 * threshold:.1f}%: {'PASS' if rate >= threshold else 'FAIL'}",
    ]
    return "\n".join(lines) + "\n"


def test_bench_json_carries_the_diagnostics_the_text_shows(capsys, ctx):
    # The full replay, then a selection of one method, whose siblings are
    # solved for the diagnostics alone.
    for argv in (["bench"], ["bench", "--table", "2", "--method", "dehghan1", "--threshold", "0"]):
        rc = main(argv)
        text = capsys.readouterr().out
        assert main(argv + ["--output", "json"]) == rc
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"]
        assert _bench_text_from(payload, ctx) == text
    (diag,) = payload["diagnostics"]
    assert {k: diag[k] for k in ("table", "method", "function")} == {
        "table": 2,
        "method": "dehghan1",
        "function": "f1",
    }
    assert [n for n, _ in diag["better_counts"]] == [1, 2]
    assert [tag for tag, _ in diag["alt_methods"]] == ["steffensen", "dehghan2"]


def _solve_text_from(payload):
    """The text ``solve`` prints, rebuilt from its ``--format json`` payload alone."""
    ctx = PrecisionContext(payload["precision_bits"])
    lines = [
        f"{payload['method']} on {payload['function']} from x0 = {payload['x0']} "
        f"at {payload['precision_bits']} bits",
        f"{'n':>4}  {'x':<15}  {'|f(x)|':<15}",
    ]
    for t in payload["iterates"]:
        x, fx = ctx.paper_str(ctx.mpf(t["x"])), ctx.paper_str(abs(ctx.mpf(t["fx"])))
        lines.append(f"{t['n']:>4}  {x:<15}  {fx:<15}")
    steps = max(len(payload["iterates"]) - 1, 0)
    n_jets = payload["jet_call_total"]
    jets = f", {_count(n_jets, 'jet call')}" if n_jets else ""
    lines.append(
        f"status: {payload['status']} after {_count(steps, 'iteration')} "
        f"({_count(payload['f_call_total'], 'f-call')}{jets})"
    )
    if payload["detail"]:
        lines.append(f"detail: {payload['detail']}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        # Stops with a detail line, after five steps at a precision that is not the default.
        ["solve", "--method", "mkdf", "--function", "f2", "--x0", "0.7", "--precision-bits", "1792"],
        # Counts its jet calls.
        ["solve", "--method", "kou", "--function", "f3"],
    ],
)
def test_solve_json_carries_everything_the_text_shows(capsys, argv):
    rc = main(argv)
    text = capsys.readouterr().out
    assert main(argv + ["--format", "json"]) == rc
    payload = json.loads(capsys.readouterr().out)
    assert payload["detail"] or payload["jet_call_total"]
    assert _solve_text_from(payload) == text


def test_bench_csv_skips_the_diagnostics(capsys, monkeypatch):
    calls = []

    def recording(*args, **kwargs):
        calls.append(kwargs["with_diagnostics"])
        return run_benchmark(*args, **kwargs)

    monkeypatch.setattr("stefbench.cli.run_benchmark", recording)
    for output in ("csv", "json", "text"):
        main(["bench", "--table", "2", "--output", output, "--threshold", "0"])
    capsys.readouterr()
    assert calls == [False, True, True]


def test_bench_csv_round_trips_full_precision(capsys, ctx):
    rc = main(["bench", "--table", "4", "--output", "csv", "--threshold", "0"])
    text = capsys.readouterr().out
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 7
    report = run_benchmark(ctx, tables=[4], with_diagnostics=False)
    for row, rec in zip(rows, report.records):
        assert row["method"] == rec.cell.method
        assert ctx.mpf(row["computed_value"]) == rec.computed_value
        assert float(row["log10_discrepancy"]) == float(rec.log10_discrepancy)
        assert row["match"] in ("true", "false")


def _csv_text(value):
    # The CSV encoding of a JSON value: null is empty, bools are lower case,
    # and numbers print as json.dumps prints them.
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _csv_and_json(capsys, argv, option):
    rc_csv = main(argv + [option, "csv"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    rc_json = main(argv + [option, "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc_csv == rc_json == 0
    return rows, payload


def test_bench_csv_rows_are_the_json_records(capsys):
    argv = ["bench", "--table", "6", "--threshold", "0"]
    rows, payload = _csv_and_json(capsys, argv, "--output")
    records = payload["records"]
    assert len(records) == 7
    assert any(r["log10_discrepancy"] is not None for r in records)
    assert {r["match"] for r in records} == {True, False}
    assert rows == [{k: _csv_text(v) for k, v in r.items()} for r in records]


def test_solve_csv_rows_are_the_json_iterates(capsys):
    argv = ["solve", "--method", "mkdf", "--function", "f1", "--iterations", "3"]
    rows, payload = _csv_and_json(capsys, argv, "--format")
    assert len(rows) == 4
    assert rows == [{k: _csv_text(v) for k, v in t.items()} for t in payload["iterates"]]


def test_solve_text_counts_no_steps_for_an_empty_trace(capsys):
    rc = main(["solve", "--method", "mkdf", "--expr", "ln(x)", "--x0", "-1"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert lines[-2] == "status: domain_error after 0 iterations (1 f-call)"


def test_solve_csv_of_an_empty_trace_is_the_header(capsys):
    # ln is undefined at x0, so the run stops before it records an iterate.
    rc = main(["solve", "--method", "mkdf", "--expr", "ln(x)", "--x0", "-1", "--format", "csv"])
    assert rc == 1
    assert capsys.readouterr().out == "n,x,fx\r\n"


def test_bench_full_text_verdict(capsys):
    rc = main(["bench"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "matched 22/49 cells (44.9%)" in out
    assert "FAIL" in out
    assert "mismatched cells:" in out


def test_bench_threshold_is_configurable(capsys):
    rc = main(["bench", "--threshold", "0.4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out


def test_bench_empty_selection_is_a_usage_error(capsys):
    rc = main(["bench", "--table", "2", "--function", "f3"])
    assert rc == 2
    assert "selection matches no reference cells" in capsys.readouterr().err


def test_bench_tolerance_flag_reaches_the_scorer(capsys):
    rc = main(["bench", "--table", "7", "--method", "mkdf", "--tolerance-orders", "0.5"])
    assert rc == 1


BENCH_OPTION_RULES = {
    "--tolerance-orders": "tolerance_orders must be finite and >= 0",
    "--threshold": "--threshold must be in [0, 1]",
}


@pytest.mark.parametrize(
    "option, value",
    [
        *(("--tolerance-orders", v) for v in ("nan", "inf", "-1")),
        *(("--threshold", v) for v in ("nan", "-1", "1.5")),
    ],
)
def test_bench_scoring_options_are_usage_errors(capsys, monkeypatch, option, value):
    def no_cell_runs(*args):
        raise AssertionError("a cell ran before the options were checked")

    monkeypatch.setattr("stefbench.reference.solve", no_cell_runs)
    rc = main(["bench", "--table", "4", "--method", "mkdf", f"{option}={value}"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {BENCH_OPTION_RULES[option]}, got {float(value)}\n"


def test_bench_threshold_of_one_is_accepted(capsys):
    # The upper bound is inclusive; 0 is used throughout this file.
    assert main(["bench", "--table", "4", "--method", "mkdf", "--threshold", "1"]) == 0
    assert "threshold 100.0%: PASS" in capsys.readouterr().out


# -- coc and constant -------------------------------------------------------


def test_coc_reports_fourth_order(capsys):
    rc = main(["coc", "--method", "mkdf", "--function", "f3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "claimed order: 4" in out
    final = next(line for line in out.splitlines() if line.startswith("final rho = "))
    rho = float(final.split()[3])
    assert 3.5 <= rho <= 4.5


def test_coc_needs_enough_iterations(capsys):
    rc = main(["coc", "--method", "mkdf", "--function", "f3", "--iterations", "1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["coc", "--method", "mkdf", "--function", "f7", "--iterations", "0"],
        ["constant", "--function", "f7", "--iterations", "10001"],
    ],
    ids=["coc", "constant"],
)
def test_a_refused_step_count_costs_no_refinement(monkeypatch, capsys, argv):
    def refuse(*args):
        raise AssertionError("refine_root was called")

    monkeypatch.setattr("stefbench.cli.refine_root", refuse)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: fixed_iterations must be")


def test_constant_on_a_quadratic(capsys):
    rc = main(["constant", "--expr", "x + x^2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "formula value = 0.30000e+1" in out
    assert "agreement |empirical/formula|: 1.0" in out


def test_constant_on_a_builtin(capsys):
    rc = main(["constant", "--function", "f1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "error constant report for f1" in out


def test_constant_refines_where_fixed_precision_broke_down(capsys):
    # At 1792 bits a refinement at working precision alone ends in a
    # denominator breakdown from f2's seed 0.7; the ladder converges.
    rc = main(["constant", "--function", "f2", "--precision-bits", "1792"])
    assert rc == 0
    assert "refined root = 0.257530285439860760455367304937" in capsys.readouterr().out


def test_constant_from_the_root_itself_has_nothing_to_compare(capsys):
    # From x0 = 1 on the root of x - 1 every error is 0, so no ratio is
    # usable and the agreement has no empirical side.
    rc = main(["constant", "--expr", "x - 1", "--x0", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "empirical e(n+1)/e(n)^4 ratios: none usable" in out
    assert "agreement |empirical/formula|: n/a" in out


def test_constant_without_a_root_fails(capsys):
    rc = main(["constant", "--expr", "x^2 + 1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("expr, x0", [("abs(x - 1)", "1"), ("sqrt(x)", "0")])
def test_constant_at_a_root_outside_the_domain_fails(capsys, expr, x0):
    # The root refines, but the Taylor jet of f is undefined there.
    rc = main(["constant", "--expr", expr, "--x0", x0])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")


# -- list ---------------------------------------------------------------------


def test_list_enumerates_methods_and_functions(capsys):
    rc = main(["list"])
    out = capsys.readouterr().out
    assert rc == 0
    for tag in METHOD_TAGS:
        assert tag in out
    for name in FUNCTION_NAMES:
        assert name in out


def test_list_takes_no_precision():
    # list computes nothing, so a precision would be ignored; it is refused.
    with pytest.raises(SystemExit) as exc:
        main(["list", "--precision-bits", "512"])
    assert exc.value.code == 2
