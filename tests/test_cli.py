"""The command-line surface."""

import csv
import io
import json

import pytest

from stefbench import (
    FUNCTION_NAMES,
    METHOD_TAGS,
    load_reference_cells,
    run_benchmark,
)
from stefbench.cli import format_paper, main


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("STEFBENCH_PRECISION_BITS", raising=False)


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
    assert "--theta only applies" in capsys.readouterr().err


def test_theta_must_be_numeric(capsys):
    rc = main(["solve", "--method", "kou", "--function", "f1", "--theta", "abc"])
    assert rc == 2
    assert "must be a number" in capsys.readouterr().err


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
        *(("kou", "--theta", v) for v in ("nan", "inf", "-inf", "1e400")),
    ],
)
def test_non_finite_inputs_are_usage_errors(capsys, method, option, value):
    # --x0 and --tol are read at working precision, where 1e400 is finite;
    # --theta is a machine number, where it overflows to inf.
    rc = main(["solve", "--method", method, "--function", "f3", f"{option}={value}"])
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err


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


def test_zero_fixed_iterations_is_a_usage_error(capsys):
    rc = main(["solve", "--method", "mkdf", "--function", "f1", "--iterations", "0"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


# -- precision plumbing --------------------------------------------------


def _solved_bits(capsys, argv):
    rc = main(argv + ["--format", "json"])
    assert rc == 0
    return json.loads(capsys.readouterr().out)["precision_bits"]


def test_precision_bits_flag(capsys):
    argv = ["solve", "--method", "mkdf", "--function", "f3", "--precision-bits", "128"]
    assert _solved_bits(capsys, argv) == 128


def test_precision_bits_env(capsys, monkeypatch):
    monkeypatch.setenv("STEFBENCH_PRECISION_BITS", "256")
    assert _solved_bits(capsys, ["solve", "--method", "mkdf", "--function", "f3"]) == 256


def test_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("STEFBENCH_PRECISION_BITS", "256")
    argv = ["solve", "--method", "mkdf", "--function", "f3", "--precision-bits", "128"]
    assert _solved_bits(capsys, argv) == 128


def test_malformed_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("STEFBENCH_PRECISION_BITS", "puppies")
    rc = main(["solve", "--method", "mkdf", "--function", "f3"])
    assert rc == 2
    assert "must be an integer" in capsys.readouterr().err


def test_too_few_bits_is_a_usage_error(capsys):
    rc = main(["solve", "--method", "mkdf", "--function", "f3", "--precision-bits", "32"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


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
    ],
)
def test_format_paper(ctx, value, rendered):
    assert format_paper(ctx.mpf(value), ctx) == rendered


def test_format_paper_round_trips_the_reference_values(ctx):
    for cell in load_reference_cells():
        assert format_paper(ctx.mpf(cell.paper_value), ctx) == cell.paper_value


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


def test_bench_json_carries_the_diagnostics_the_text_shows(capsys):
    argv = ["bench", "--table", "2", "--method", "dehghan1", "--threshold", "0"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert main(argv + ["--output", "json"]) == 0
    (diag,) = json.loads(capsys.readouterr().out)["diagnostics"]
    assert {k: diag[k] for k in ("table", "method", "function")} == {
        "table": 2,
        "method": "dehghan1",
        "function": "f1",
    }
    # dehghan1 is the only method selected, so its siblings are solved for
    # the diagnostics alone.
    assert [n for n, _ in diag["better_counts"]] == [1, 2]
    assert [tag for tag, _ in diag["alt_methods"]] == ["steffensen", "dehghan2"]
    for n, dlog in diag["better_counts"]:
        assert f"closer at {n} iterations (dlog {dlog:+.2f})" in text
    for tag, dlog in diag["alt_methods"]:
        assert f"agreement: {tag} computed matches this cell (dlog {dlog:+.2f})" in text


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
    assert lines[-2] == "status: domain_error after 0 iterations (1 f-calls)"


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


def test_constant_on_a_quadratic(capsys):
    rc = main(["constant", "--expr", "x + x^2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "formula value = -0.20000e+1" in out
    assert "(diagnostic only" in out


def test_constant_on_a_builtin(capsys):
    rc = main(["constant", "--function", "f1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "error constant report for f1" in out


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
