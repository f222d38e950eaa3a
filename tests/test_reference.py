"""Bundled reference data and the benchmark runner."""

import collections
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import stefbench
from stefbench import (
    BUILTINS,
    FIXED_COUNT_COMPLETED,
    TABLE_METHODS,
    CountingFunction,
    DomainError,
    PrecisionContext,
    ScalarFunction,
    SolveConfig,
    StepOutcome,
    dehghan1_step,
    dehghan2_step,
    from_expression,
    load_reference_cells,
    run_benchmark,
    solve,
)
from stefbench.cli import format_paper
from stefbench.reference import _PointMemo

TABLE_FUNCTIONS = {2: "f1", 3: "f2", 4: "f3", 5: "f4", 6: "f5", 7: "f6", 8: "f7"}
TABLE_STARTS = {2: "1", 3: "0.7", 4: "1", 5: "1", 6: "1", 7: "1", 8: "3.6"}


# -- the dataset -------------------------------------------------------------


def test_dataset_shape():
    cells = load_reference_cells()
    assert len(cells) == 49
    by_table = collections.Counter(c.table_id for c in cells)
    assert by_table == {t: 7 for t in range(2, 9)}
    for cell in cells:
        assert cell.function == TABLE_FUNCTIONS[cell.table_id]
        assert cell.x0 == TABLE_STARTS[cell.table_id]


def test_cells_come_back_in_published_row_order():
    cells = load_reference_cells()
    for t in range(2, 9):
        methods = tuple(c.method for c in cells if c.table_id == t)
        assert methods == TABLE_METHODS


def test_loading_is_deterministic():
    assert load_reference_cells() == load_reference_cells()


def test_paper_values_are_positive_parseable_strings(ctx):
    for cell in load_reference_cells():
        assert ctx.mpf(cell.paper_value) > 0


def test_spot_values():
    first = load_reference_cells()[0]
    assert (first.table_id, first.method, first.paper_value) == (2, "steffensen", "0.27307e-3")
    values = {(c.table_id, c.method): c.paper_value for c in load_reference_cells()}
    assert values[(2, "mkdf")] == "0.47200e-25"
    assert values[(6, "dehghan1")] == "0.43288e+0"
    assert values[(7, "steffensen")] == "0.77299e+1"
    assert values[(8, "mkdf")] == "0.39633e-74"


# -- scoring ------------------------------------------------------------------


def test_single_cell_reproduction(ctx):
    report = run_benchmark(ctx, tables=[4], methods=["mkdf"])
    assert report.total == 1
    record = report.records[0]
    assert record.match
    assert record.status == "fixed_count_completed"
    assert abs(record.log10_discrepancy) < ctx.mpf("1e-3")


@pytest.mark.parametrize("orders", [math.nan, math.inf, -math.inf, -1.0])
def test_tolerance_orders_must_be_finite_and_non_negative(ctx, orders):
    with pytest.raises(ValueError, match="tolerance_orders must be finite and >= 0"):
        run_benchmark(ctx, tables=[4], methods=["mkdf"], tolerance_orders=orders)


def test_steffensen_column_reproduces_everywhere(ctx):
    report = run_benchmark(ctx, methods=["steffensen"], with_diagnostics=False)
    assert report.total == 7
    assert report.matched == 7


def test_full_run_counts(ctx):
    report = run_benchmark(ctx, with_diagnostics=False)
    assert report.total == 49
    assert report.matched == 22
    per_method = collections.Counter(r.cell.method for r in report.records if r.match)
    assert per_method == {"steffensen": 7, "jain": 7, "mkdf": 6, "cordero": 2}


def _printed_replay(bits):
    """Each cell's five-digit residual and status, as ``bench`` prints them."""
    ctx = PrecisionContext(bits)
    report = run_benchmark(ctx, with_diagnostics=False)
    return {
        (r.cell.table_id, r.cell.method): (format_paper(r.computed_value, ctx), r.status)
        for r in report.records
    }


def test_printed_digits_are_stable_under_doubled_precision():
    # No printed digit of the replay is roundoff: doubling 512 bits changes
    # no cell. The check has teeth: from 256 bits, 2 cells (table 8
    # cordero and mkdf) change, and from 128 bits, 10 do.
    at_512 = _printed_replay(512)
    assert len(at_512) == 49
    assert at_512 == _printed_replay(1024)


def test_records_follow_dataset_order(ctx):
    report = run_benchmark(ctx, with_diagnostics=False)
    keys = [(r.cell.table_id, r.cell.method) for r in report.records]
    expected = [(t, m) for t in range(2, 9) for m in TABLE_METHODS]
    assert keys == expected


def test_match_tolerance_is_configurable(ctx):
    strict = run_benchmark(ctx, tables=[7], methods=["mkdf"], tolerance_orders=0.5)
    loose = run_benchmark(ctx, tables=[7], methods=["mkdf"])
    # This cell sits one order off its computed value, inside the default
    # net and outside a half-order one.
    assert not strict.records[0].match
    assert loose.records[0].match
    assert abs(loose.records[0].log10_discrepancy - 1) < ctx.mpf("0.01")


def test_empty_selection_scores_nothing(ctx):
    report = run_benchmark(ctx, tables=[9])
    assert report.total == 0
    assert report.records == []
    assert report.match_rate == 0.0


# -- diagnostics ----------------------------------------------------------------


def test_diagnostics_cover_exactly_the_mismatches(ctx):
    report = run_benchmark(ctx)
    mismatched = {(r.cell.table_id, r.cell.method) for r in report.records if not r.match}
    diagnosed = {(d.cell.table_id, d.cell.method) for d in report.diagnostics}
    assert diagnosed == mismatched


def test_diagnostics_localize_the_swapped_columns(ctx):
    report = run_benchmark(ctx, tables=[4])
    diag = {d.cell.method: d for d in report.diagnostics}
    # The dehghan2 cell in this table is reproduced by dehghan1's computed
    # residual. The pair is inverted this way in every table (see the tests
    # under "the dehghan columns"), so either the published columns or the
    # kernels' binding to the labels is swapped; the printed labels and
    # formulas do not settle which.
    assert "dehghan1" in [tag for tag, _ in diag["dehghan2"].alt_methods]


def test_diagnostics_flag_better_iteration_counts(ctx):
    report = run_benchmark(ctx, tables=[2])
    diag = {d.cell.method: d for d in report.diagnostics}
    better = diag["cordero"].better_counts
    assert any(n == 2 and abs(disc) < 0.5 for n, disc in better)


def test_diagnostics_can_be_disabled(ctx):
    report = run_benchmark(ctx, with_diagnostics=False)
    assert report.diagnostics == []


# -- one solve per cell -----------------------------------------------------------


def test_the_full_replay_solves_each_cell_once(monkeypatch):
    # Three steps per cell, and one more from x_3 for each diagnosed cell
    # whose three-step run completed; the others stopped sooner.
    steps = []

    def counting_solve(*args, **kwargs):
        steps.append(args[3].fixed_iterations)
        return solve(*args, **kwargs)

    monkeypatch.setattr("stefbench.reference.solve", counting_solve)
    report = run_benchmark(PrecisionContext(128))
    diagnosed = {d.cell for d in report.diagnostics}
    completed = [
        r for r in report.records if r.cell in diagnosed and r.status == FIXED_COUNT_COMPLETED
    ]
    assert (report.total, len(diagnosed), len(completed)) == (49, 31, 23)
    assert collections.Counter(steps) == {3: 49, 1: 23}


def test_the_replay_takes_a_logarithm_only_where_it_can_count(monkeypatch):
    # 49 records and 68 kept diagnostic entries, plus 15 entries whose
    # quotient exponent does not decide them, of 292 discrepancies a
    # replay that scored every probe would take.
    calls = []
    log10 = PrecisionContext.log10

    def counting_log10(self, x):
        calls.append(x)
        return log10(self, x)

    monkeypatch.setattr(PrecisionContext, "log10", counting_log10)
    report = run_benchmark(PrecisionContext(512))
    kept = sum(len(d.better_counts) + len(d.alt_methods) for d in report.diagnostics)
    assert (report.total, kept, len(calls)) == (49, 68, 132)


# -- one f-evaluation per point -------------------------------------------------


def test_the_point_memo_returns_fs_value_bit_for_bit(ctx):
    f = CountingFunction(BUILTINS["f5"])
    memo = _PointMemo(f)
    first = memo(ctx.mpf("0.7"), ctx)
    assert first._mpf_ == BUILTINS["f5"](ctx.mpf("0.7"), ctx)._mpf_
    assert memo(ctx.mpf("0.7"), ctx) is first
    assert f.calls == 1


def test_the_point_memo_stores_nothing_where_f_raises(ctx):
    memo = _PointMemo(from_expression("ln(x)"))
    messages = []
    for _ in range(2):
        with pytest.raises(DomainError) as raised:
            memo(ctx.mpf(-1), ctx)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert memo.values == {}


def test_the_point_memo_forwards_jets_uncached(ctx):
    f = CountingFunction(BUILTINS["f3"])
    memo = _PointMemo(f)
    jets = [memo.eval_jet(ctx.mpf(1), 2, ctx) for _ in range(2)]
    assert (f.jet_calls, f.calls, memo.values) == (2, 0, {})
    expected = BUILTINS["f3"].eval_jet(ctx.mpf(1), 2, ctx).coeffs
    assert all(jet.coeffs == expected for jet in jets)


def test_the_replay_evaluates_each_point_once(monkeypatch):
    # The formulas' 765 f-calls per 512-bit replay land on 597 distinct
    # (function, point) pairs: the methods of a table share x0 and many
    # first-step points, and the n = 4 probe starts from x_3 again.
    evaluated = []
    runs = []
    call = ScalarFunction.__call__

    def recording_call(self, x, ctx):
        evaluated.append((self.name, x._mpf_))
        return call(self, x, ctx)

    def recording_solve(*args):
        trace = solve(*args)
        runs.append((args, trace))
        return trace

    monkeypatch.setattr(ScalarFunction, "__call__", recording_call)
    monkeypatch.setattr("stefbench.reference.solve", recording_solve)
    run_benchmark(PrecisionContext(512))
    monkeypatch.undo()
    assert len(set(evaluated)) == len(evaluated) == 597
    # Each run is the one a memo-less solve gives, f-calls included.
    direct = []
    for (method, memo, x0, cfg, ctx), trace in runs:
        plain = solve(method, memo.fn, x0, cfg, ctx)
        assert (plain.iterates, plain.status) == (trace.iterates, trace.status)
        direct.append(plain.f_call_total)
    assert sum(direct) == sum(trace.f_call_total for _, trace in runs) == 765


_LAST_REPLAY = """
import sys
from stefbench import PrecisionContext, run_benchmark

for bits in sys.argv[1:]:
    report = run_benchmark(PrecisionContext(int(bits)))

def exact(v):
    return getattr(v, "_mpf_", v)

for r in report.records:
    print(r.status, r.match, exact(r.computed_value), exact(r.log10_discrepancy))
for d in report.diagnostics:
    print([(n, exact(v)) for n, v in d.better_counts], [(t, exact(v)) for t, v in d.alt_methods])
"""


def _last_replay(*bits):
    """The exact records and diagnostics of the last of replays run in one fresh process."""
    env = {**os.environ, "PYTHONPATH": str(Path(stefbench.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", _LAST_REPLAY, *map(str, bits)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return done.stdout


def test_no_replay_state_outlives_its_call():
    # f(1) at 128 bits is not f(1) at 512 bits, though the point's bits
    # are the same: a memo kept past its call would hand the 128-bit value
    # to the 512-bit replay. Fresh processes keep other tests' replays out.
    alone = _last_replay(512)
    assert alone.count("\n") == 49 + 27
    assert _last_replay(128, 512) == alone


def _direct(cell, method, n, ctx):
    """|f(x_n)| and status of a run of exactly n steps."""
    f = BUILTINS[cell.function]
    trace = solve(method, f, ctx.mpf(cell.x0), SolveConfig(fixed_iterations=n), ctx)
    return abs(trace.final.fx), trace.status


@pytest.mark.parametrize(
    "selection",
    [
        {},
        {"methods": ["mkdf"]},
        {"tolerance_orders": 0},
        {"tolerance_orders": 0.5},
        {"tolerance_orders": 5},
        {"tolerance_orders": 40},
    ],
    ids=["all", "mkdf-without-siblings", "every-cell-diagnosed", "tol-0.5", "tol-5", "tol-40"],
)
def test_the_replay_equals_direct_runs_of_each_count(selection):
    # The replay reads the residuals at n <= 3 off one three-step run per
    # cell and continues it for n = 4; each must be what a direct run of
    # that many steps gives. The oracle takes every nearby and sibling
    # logarithm, so it also pins that no entry the replay rules out by its
    # quotient's exponent would have been kept.
    ctx = PrecisionContext(128)
    report = run_benchmark(ctx, **selection)
    diagnosed = {d.cell: d for d in report.diagnostics}
    assert diagnosed
    if selection.get("tolerance_orders") == 0:
        assert len(diagnosed) == report.total
    for record in report.records:
        cell = record.cell
        assert (record.computed_value, record.status) == _direct(cell, cell.method, 3, ctx)
        if record.match:
            assert cell not in diagnosed
            continue
        paper = ctx.mpf(cell.paper_value)

        def dlog(residual):
            return None if residual == 0 else ctx.mp.log10(residual / paper)

        base = None if record.log10_discrepancy is None else abs(record.log10_discrepancy)
        nearby = [(n, dlog(_direct(cell, cell.method, n, ctx)[0])) for n in (1, 2, 4)]
        assert diagnosed[cell].better_counts == [
            (n, d) for n, d in nearby if d is not None and (base is None or abs(d) < base)
        ]
        siblings = [
            (tag, dlog(_direct(cell, tag, 3, ctx)[0]))
            for tag in TABLE_METHODS
            if tag != cell.method
        ]
        tol = selection.get("tolerance_orders", 2)
        assert diagnosed[cell].alt_methods == [
            (tag, d) for tag, d in siblings if d is not None and abs(d) <= tol
        ]


# -- the dehghan columns ---------------------------------------------------------
#
# These tests pin the evidence behind the README's account of criterion 01's
# misses. They replay cells with kernels other than the one each label binds
# to, so they describe the reference data; they change no binding.


def _three_step_residual(step, f, x0, ctx):
    x = x0
    for _ in range(3):
        x = step(f, x, f(x, ctx), ctx).next
    return abs(f(x, ctx))


def _dehghan3_variant_step(f, x, fx, ctx):
    """y = x - 2 f(x)^2 / fu, x' = x - 4 f(x)^2 f(y) / (f(y) fu + f(x) fv).

    fu and fv are the symmetric differences at x and y, as in
    ``dehghan3_step``, which runs y = x + 2 f(x)^2 / fu and
    x' = x - 2 f(x) / (f(y) fu + f(x) fv) as printed.
    """
    fu = f(x + fx, ctx) - f(x - fx, ctx)
    y = x - 2 * fx**2 / fu
    fy = f(y, ctx)
    fv = f(y + fy, ctx) - f(y - fy, ctx)
    return StepOutcome(x - 4 * fx**2 * fy / (fy * fu + fx * fv), y)


def _printed_replays(step, tag, ctx):
    """{table: five-digit |f(x3)| of ``step``} over the cells filed under ``tag``."""
    return {
        c.table_id: format_paper(
            _three_step_residual(step, BUILTINS[c.function], ctx.mpf(c.x0), ctx), ctx
        )
        for c in load_reference_cells()
        if c.method == tag
    }


def _published(tag):
    return {c.table_id: c.paper_value for c in load_reference_cells() if c.method == tag}


def _exponent_shift(printed, published):
    """Exponent of ``printed`` minus that of ``published`` if the mantissas agree."""
    (m1, e1), (m2, e2) = printed.split("e"), published.split("e")
    return int(e1) - int(e2) if m1 == m2 else None


def test_dehghan_columns_hold_the_other_labels_replay(ctx):
    # Each published dehghan1 column equals the dehghan2 kernel's replay to
    # five digits and vice versa, except in table 6 (its dehghan1 cell is
    # the starting residual, its dehghan2 cell a binary64 run; see below)
    # and table 8's dehghan1 cell, printed with its exponent one too low.
    for tag, other_step, expected in (
        ("dehghan1", dehghan2_step, {2: 0, 3: 0, 4: 0, 5: 0, 6: None, 7: 0, 8: 1}),
        ("dehghan2", dehghan1_step, {2: 0, 3: 0, 4: 0, 5: 0, 6: None, 7: 0, 8: 0}),
    ):
        printed = _printed_replays(other_step, tag, ctx)
        published = _published(tag)
        assert {t: _exponent_shift(printed[t], published[t]) for t in printed} == expected


def test_table_6_small_cells_are_binary64_residuals(ctx):
    assert BUILTINS["f5"].source == "exp(x) - 1.5 - arctan(x)"

    def f5(x, _ctx):
        return math.exp(x) - 1.5 - math.atan(x)

    binary64 = SimpleNamespace(breakdown_floor=0.0)
    published = {c.method: c.paper_value for c in load_reference_cells() if c.table_id == 6}
    # The jain, dehghan2 and mkdf cells are 9, 1 and 1 units of 2^-53.
    ulp = 2.0**-53
    assert format_paper(9 * ulp, ctx) == published["jain"]
    assert format_paper(ulp, ctx) == published["dehghan2"] == published["mkdf"]
    # The dehghan2 cell is, to all five digits, what the dehghan1 kernel
    # gives when run in binary64: the swap holds in this table too.
    residual = _three_step_residual(dehghan1_step, f5, 1.0, binary64)
    assert format_paper(residual, ctx) == published["dehghan2"]


def test_dehghan3_variant_reproduces_six_published_cells(ctx):
    printed = _printed_replays(_dehghan3_variant_step, "dehghan3", ctx)
    published = _published("dehghan3")
    shifts = {t: _exponent_shift(printed[t], published[t]) for t in printed}
    # Five-digit agreement in tables 2, 3, 5 and 7; in tables 4 and 8 the
    # mantissas agree and the published exponent is one too low. Table 6's
    # cell, from a binary64 run, is not reproduced.
    assert shifts == {2: 0, 3: 0, 4: 1, 5: 0, 6: None, 7: 0, 8: 1}


def test_rebinding_the_dehghan_kernels_leaves_eight_misses(ctx):
    rebound = {
        "dehghan1": dehghan2_step,
        "dehghan2": dehghan1_step,
        "dehghan3": _dehghan3_variant_step,
    }
    misses = set()
    for record in run_benchmark(ctx, with_diagnostics=False).records:
        cell = record.cell
        match = record.match
        if cell.method in rebound:
            computed = _three_step_residual(
                rebound[cell.method], BUILTINS[cell.function], ctx.mpf(cell.x0), ctx
            )
            match = abs(ctx.mp.log10(computed / ctx.mpf(cell.paper_value))) <= 2
        if not match:
            misses.add((cell.table_id, cell.method))
    # 41 of 49 would match. What is left: table 6's binary64 cells and
    # starting residual, and the cordero cells of tables 2-6.
    assert misses == {
        (6, "dehghan1"),
        (6, "dehghan3"),
        (6, "mkdf"),
        *((t, "cordero") for t in range(2, 7)),
    }
