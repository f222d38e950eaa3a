"""Iteration kernels: exact affine behaviour, rational one-step oracles,
evaluation counts, breakdown guards, and the kou-family identity."""

from fractions import Fraction

import pytest

from stefbench import (
    BUILTINS,
    DENOMINATOR_BREAKDOWN,
    FIXED_COUNT_COMPLETED,
    BreakdownError,
    MethodKind,
    PrecisionContext,
    SolveConfig,
    claimed_order,
    from_expression,
    solve,
)
from stefbench.cli import _build_parser
from stefbench.functions import CountingFunction
from stefbench.methods import (
    METHOD_TAGS,
    METHODS,
    TABLE_METHODS,
    central_diff_slope,
    cordero_step,
    dehghan1_step,
    dehghan2_step,
    dehghan3_step,
    kou_fd_step,
    kou_step,
    mkdf_step,
    steffensen_step,
)


# -- affine problems ------------------------------------------------------


@pytest.mark.parametrize("tag", [tag for tag in METHODS if tag != "dehghan3"])
def test_one_step_exact_on_dyadic_affine(ctx, tag):
    # f(x) = 2x - 3 from 0: slope and root are dyadic, so every kernel
    # operation is exact and the step must land on 1.5 to the last bit.
    f = from_expression("2*x - 3")
    x0 = ctx.mpf(0)
    out = METHODS[tag].step(f, x0, f(x0, ctx), ctx)
    assert out == ctx.mpf("1.5")


@pytest.mark.parametrize("theta", [-1, 1, 2])
def test_kou_one_step_exact_on_dyadic_affine(ctx, theta):
    f = from_expression("2*x - 3")
    x0 = ctx.mpf(0)
    out = kou_step(f, x0, f(x0, ctx), theta, ctx.mpf(2), ctx)
    assert out == ctx.mpf("1.5")


def test_dehghan3_identity_probe_gives_three_quarters(ctx):
    # The three-step variant as printed is not exact on affine problems;
    # its pinned behaviour is f(x) = x from 1 -> 3/4.
    f = from_expression("x")
    out = dehghan3_step(f, ctx.mpf(1), f(ctx.mpf(1), ctx), ctx)
    assert out == ctx.mpf(3) / 4


# -- exact-rational one-step oracles --------------------------------------
#
# Each update is mirrored in Fraction arithmetic on f(x) = x^2 - 2 from
# x0 = 1. The mirror shares the formulas but none of the rounding, so a
# match within a few ulps pins the floating-point path.


def _frac_f(x: Fraction) -> Fraction:
    return x * x - 2


def _frac_expected(tag: str) -> Fraction:
    x = Fraction(1)
    fx = _frac_f(x)
    if tag == "steffensen":
        d = _frac_f(x + fx) - fx
        return x - fx ** 2 / d
    if tag == "jain":
        d = _frac_f(x + fx) - fx
        y = x - fx ** 2 / d
        fy = _frac_f(y)
        return x - fx ** 3 / (d * (fx - fy))
    d = _frac_f(x + fx) - _frac_f(x - fx)
    if tag == "dehghan1":
        y = x - 2 * fx ** 2 / d
        return x - 2 * fx * (fx + _frac_f(y)) / d
    if tag == "dehghan2":
        y = x + 2 * fx ** 2 / d
        return x - 2 * fx * (_frac_f(y) - fx) / d
    if tag == "dehghan3":
        y = x + 2 * fx ** 2 / d
        fy = _frac_f(y)
        fv = _frac_f(y + fy) - _frac_f(y - fy)
        return x - 2 * fx / (fy * d + fx * fv)
    if tag == "cordero":
        t = 2 * fx ** 2 / d
        fy = _frac_f(x - t)
        return x - t * (fy - fx) / (2 * fy - fx)
    if tag == "kou_fd":
        s = (_frac_f(x + fx) - fx) / fx
    elif tag == "kou":  # the exact slope f'(x) = 2x
        s = 2 * x
    else:  # mkdf
        s = d / (2 * fx)
    y = x - fx / s
    fy = _frac_f(y)
    return x + (fx + fy) / s - 2 * fx ** 2 / (s * (fx - fy))


@pytest.mark.parametrize("tag", sorted(METHODS))
def test_one_step_matches_exact_rational_arithmetic(ctx, close, tag):
    f = from_expression("x^2 - 2")
    out = METHODS[tag].step(f, ctx.mpf(1), f(ctx.mpf(1), ctx), ctx)
    expected = _frac_expected(tag)
    as_mpf = ctx.mpf(expected.numerator) / ctx.mpf(expected.denominator)
    assert close(out, as_mpf, ulps=8)


def test_dehghan_steps_are_exact_where_every_point_is_dyadic(ctx):
    # On x^2 - 2 from 1, f(x) = -1 and D = f(0) - f(2) = -4, so dehghan1's
    # y = 1 - 2/(-4) = 3/2 and dehghan2's y = 1 + 2/(-4) = 1/2, with
    # f(y) = 1/4 and -7/4. Then f(x) + f(y) and f(y) - f(x) are both -3/4,
    # and both updates land on 1 - 2(-1)(-3/4)/(-4) = 11/8 with no rounding.
    f = from_expression("x^2 - 2")
    x0 = ctx.mpf(1)
    assert dehghan1_step(f, x0, f(x0, ctx), ctx) == ctx.mpf(11) / 8
    assert dehghan2_step(f, x0, f(x0, ctx), ctx) == ctx.mpf(11) / 8


# -- evaluation counts ----------------------------------------------------


@pytest.mark.parametrize("tag, count", [(m.tag, m.evals) for m in METHODS.values()])
def test_declared_evaluation_counts_match_actual_calls(ctx, tag, count):
    # evals counts f(x_n) with the kernel's own calls, so k completed
    # steps cost exactly one starting residual plus k * evals.
    k = 2
    trace = solve(tag, BUILTINS["f3"], ctx.mpf(1), SolveConfig(fixed_iterations=k), ctx)
    assert trace.status == FIXED_COUNT_COMPLETED
    assert trace.f_call_total == 1 + k * count


def test_kou_with_supplied_slope_costs_two_calls(ctx):
    counter = CountingFunction(BUILTINS["f3"])
    x0 = ctx.mpf(1)
    kou_step(counter, x0, counter(x0, ctx), -1, ctx.mpf("-1.5"), ctx)
    assert counter.calls == 2


# -- breakdown guards ------------------------------------------------------


def test_central_difference_breaks_down_on_even_functions_at_zero(ctx):
    # f(0 + f(0)) == f(0 - f(0)) for an even f, so D is exactly zero.
    f = from_expression("x^2 + 1")
    for step in (dehghan1_step, dehghan2_step, dehghan3_step, cordero_step, mkdf_step):
        with pytest.raises(BreakdownError):
            step(f, ctx.mpf(0), f(ctx.mpf(0), ctx), ctx)
    with pytest.raises(BreakdownError):
        central_diff_slope(f, ctx.mpf(0), f(ctx.mpf(0), ctx), ctx)


def test_forward_difference_breaks_down_on_constants(ctx):
    f = from_expression("x - x + 1")
    with pytest.raises(BreakdownError):
        steffensen_step(f, ctx.mpf(0), f(ctx.mpf(0), ctx), ctx)
    with pytest.raises(BreakdownError):
        kou_fd_step(f, ctx.mpf(0), f(ctx.mpf(0), ctx), ctx)


def test_kou_rejects_tiny_slopes(ctx):
    f, x0 = BUILTINS["f3"], ctx.mpf(1)
    with pytest.raises(BreakdownError):
        kou_step(f, x0, f(x0, ctx), -1, ctx.mpf("1e-160"), ctx)
    with pytest.raises(BreakdownError):
        kou_step(f, x0, f(x0, ctx), -1, ctx.mpf(0), ctx)
    # From 0 both differences are 3e-139, above the floor of about 1.9e-139
    # at 512 bits, while the slope they give is 1.5e-139, below it: the
    # slope check is the one that stops mkdf and kou_fd, after the calls
    # the difference spends.
    for tag, step, expr, calls in (
        ("mkdf", mkdf_step, "x^2 + 1.5e-139*x + 1", 3),
        ("kou_fd", kou_fd_step, "x^2 - 2*x + 2 + 1.5e-139*x", 2),
    ):
        f, x0 = from_expression(expr), ctx.mpf(0)
        with pytest.raises(BreakdownError, match="denominator slope"):
            step(f, x0, f(x0, ctx), ctx)
        trace = solve(tag, f, x0, SolveConfig(), ctx)
        assert trace.status == DENOMINATOR_BREAKDOWN
        assert trace.f_call_total == calls
        assert trace.detail == (
            "denominator slope fell below the breakdown floor (|1.5e-139| < 2^(-0.9*512))"
        )


# -- slope helper ----------------------------------------------------------


def test_central_slope_exact_for_quadratics(ctx):
    # [(x+h)^2 - (x-h)^2] / 2h = 2x for any h, and here every quantity is
    # an integer, so the quotient is exact.
    f, x = from_expression("x^2 - 2"), ctx.mpf(3)
    assert central_diff_slope(f, x, f(x, ctx), ctx) == 6


def test_central_slope_checks_f_where_the_difference_passes(ctx):
    # D = f(x + f(x)) - f(x - f(x)) is about 2 f'(x) f(x): with f' = 1e30,
    # D = 2e-110 passes the breakdown floor while f(x) = 1e-140 lies below
    # it, so the f(x) check is the one that stops mkdf.
    f, x = from_expression("1e30*x"), ctx.mpf("1e-170")
    fx = f(x, ctx)
    assert abs(f(x + fx, ctx) - f(x - fx, ctx)) >= ctx.breakdown_floor > abs(fx)
    with pytest.raises(BreakdownError, match=r"denominator f\(x\) fell below"):
        central_diff_slope(f, x, fx, ctx)
    trace = solve("mkdf", f, x, SolveConfig(), ctx)
    assert trace.status == DENOMINATOR_BREAKDOWN
    assert trace.detail == (
        "denominator f(x) fell below the breakdown floor (|1.0e-140| < 2^(-0.9*512))"
    )


def test_central_slope_approximates_the_derivative_near_a_root(ctx):
    # The probe offset is f(x) itself, so close to the root the quotient
    # approaches f' with error about f(x)^2 |f'''| / 6, here below 1e-6.
    f = BUILTINS["f3"]
    x = ctx.mpf("0.74")
    slope = central_diff_slope(f, x, f(x, ctx), ctx)
    exact = f.eval_jet(x, 1, ctx)[1]
    assert abs(slope - exact) < ctx.mpf("1e-6")


# -- the kou family identity ---------------------------------------------

# Each kou-family kernel with the slope it hands to kou_step at theta = -1.
# mkdf's cases keep the bare function name as their id.
_SLOPES = {
    "central": (mkdf_step, lambda f, x, fx, ctx: (f(x + fx, ctx) - f(x - fx, ctx)) / (2 * fx)),
    "forward": (kou_fd_step, lambda f, x, fx, ctx: (f(x + fx, ctx) - fx) / fx),
    "jet": (METHODS["kou"].step, lambda f, x, fx, ctx: f.eval_jet(x, 1, ctx)[1]),
}


@pytest.mark.parametrize(
    "slope, name",
    [
        pytest.param(slope, name, id=name if slope == "central" else f"{slope}-{name}")
        for slope in _SLOPES
        for name in sorted(BUILTINS)
    ],
)
def test_mkdf_is_kou_theta_minus_one_with_central_slope(ctx, slope, name):
    step, slope_of = _SLOPES[slope]
    f = BUILTINS[name]
    x = ctx.mpf(f.default_x0)
    fx = f(x, ctx)
    via_kou = kou_step(f, x, fx, -1, slope_of(f, x, fx, ctx), ctx)
    via_step = step(f, x, fx, ctx)
    assert via_step == via_kou


# -- method metadata ---------------------------------------------------------


def test_method_kind_rejects_unknown_tags():
    with pytest.raises(ValueError):
        MethodKind("newton")


def test_method_labels():
    assert MethodKind("mkdf").label() == "mkdf"
    assert MethodKind("kou").label() == "kou(theta=-1)"
    assert MethodKind("kou", 2).label() == "kou(theta=2)"
    assert MethodKind("kou", "0.1").label() == "kou(theta=0.1)"


def test_claimed_orders():
    for tag, method in METHODS.items():
        assert claimed_order(MethodKind(tag)) == method.order
    assert claimed_order(MethodKind("kou")) == 4
    assert claimed_order(MethodKind("kou", -1)) == 4
    assert claimed_order(MethodKind("kou", 2)) == 3
    # Compared exactly, not as text.
    assert claimed_order(MethodKind("kou", "-1.0")) == 4
    assert claimed_order(MethodKind("kou", "-10e-1")) == 4
    assert claimed_order(MethodKind("kou", "-1.000000000000000000001")) == 3


def test_table_methods_are_the_published_columns():
    assert TABLE_METHODS == (
        "steffensen",
        "jain",
        "dehghan1",
        "dehghan2",
        "dehghan3",
        "cordero",
        "mkdf",
    )
    assert set(TABLE_METHODS) < set(METHOD_TAGS)


def test_kou_kind_stepper_uses_the_jet_slope_and_is_exact_on_affine(ctx):
    f = from_expression("2*x - 3")
    stepper = MethodKind("kou").stepper()
    assert stepper(f, ctx.mpf(0), f(ctx.mpf(0), ctx), ctx) == ctx.mpf("1.5")


@pytest.mark.parametrize("bits", [64, 512])
@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_kernels_return_the_next_iterate_as_an_mpf_of_the_context(bits, tag):
    ctx = PrecisionContext(bits)
    f = BUILTINS["f3"]
    x = ctx.mpf(f.default_x0)
    fx = f(x, ctx)
    mpf = type(ctx.mpf(0))
    assert type(METHODS[tag].step(f, x, fx, ctx)) is mpf
    assert type(MethodKind(tag).stepper()(f, x, fx, ctx)) is mpf


def test_kou_theta_is_normalised_once(monkeypatch):
    assert MethodKind("kou") == MethodKind("kou", -1)
    assert MethodKind("kou").theta == "-1"
    assert MethodKind("mkdf").theta is None
    # Text is kept as given; 1e400 is finite at every working precision.
    assert MethodKind("kou", "1e400").theta == "1e400"
    # A float is kept as its text too, so it steps with the decimal that
    # its label shows, not with its binary64 value.
    ctx = PrecisionContext(512)
    f = BUILTINS["f3"]
    x = ctx.mpf(f.default_x0)
    fx = f(x, ctx)
    step = MethodKind("kou", 0.1).stepper()(f, x, fx, ctx)
    assert step == MethodKind("kou", "0.1").stepper()(f, x, fx, ctx)
    # A run reads its theta once. Text at the exponent bound takes about
    # 24 ms to read; read at every step, it was nearly all of a long run's time.
    theta = "1e-362144"
    reads = []
    mpf = PrecisionContext.mpf

    def counted_mpf(self, value):
        if value == theta:
            reads.append(self.bits)
        return mpf(self, value)

    monkeypatch.setattr(PrecisionContext, "mpf", counted_mpf)
    ctx = PrecisionContext(64)
    f = from_expression("x^2 + 1")
    trace = solve(MethodKind("kou", theta), f, "0.5", SolveConfig(fixed_iterations=10), ctx)
    assert (trace.status, len(trace.iterates)) == (FIXED_COUNT_COMPLETED, 11)
    assert reads == [64]


@pytest.mark.parametrize(
    "theta", ["nan", "inf", "-inf", pytest.param(float("1e400"), id="1e400")]
)
def test_kou_rejects_non_finite_theta(theta):
    # A float that overflowed to inf is read through its text, "inf", too.
    with pytest.raises(ValueError, match=f"^not a decimal number: '{theta}'$"):
        MethodKind("kou", theta)


def test_theta_is_rejected_outside_the_kou_family():
    with pytest.raises(ValueError, match="theta only applies to kou"):
        MethodKind("mkdf", -1)


def test_the_registry_is_the_one_source_of_method_facts(ctx):
    subcommands = _build_parser()._subparsers._group_actions[0].choices

    def method_choices(command):
        (action,) = [a for a in subcommands[command]._actions if a.dest == "method"]
        return tuple(action.choices)

    assert method_choices("solve") == method_choices("coc") == tuple(METHODS) == METHOD_TAGS
    assert method_choices("bench") == tuple(t for t, m in METHODS.items() if m.in_tables)
    # Every entry's declared cost holds on the path solve takes.
    for tag, method in METHODS.items():
        counter = CountingFunction(BUILTINS["f3"])
        x0 = ctx.mpf(1)
        MethodKind(tag).stepper()(counter, x0, counter(x0, ctx), ctx)
        assert counter.calls == method.evals, tag
        # The replay's point memo offers no jets: no table method asks for one.
        if method.in_tables:
            assert counter.jet_calls == 0, tag
