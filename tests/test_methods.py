"""Iteration kernels: exact affine behaviour, rational one-step oracles,
evaluation counts, breakdown guards, and the mkdf/kou identity."""

from fractions import Fraction

import pytest

from stefbench import (
    BUILTINS,
    FIXED_COUNT_COMPLETED,
    BreakdownError,
    MethodKind,
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
    assert out.next == ctx.mpf("1.5")


@pytest.mark.parametrize("theta", [-1, 1, 2])
def test_kou_one_step_exact_on_dyadic_affine(ctx, theta):
    f = from_expression("2*x - 3")
    x0 = ctx.mpf(0)
    out = kou_step(f, x0, f(x0, ctx), theta, ctx.mpf(2), ctx)
    assert out.next == ctx.mpf("1.5")


def test_dehghan3_identity_probe_gives_three_quarters(ctx):
    # The three-step variant as printed is not exact on affine problems;
    # its pinned behaviour is f(x) = x from 1 -> 3/4.
    f = from_expression("x")
    out = dehghan3_step(f, ctx.mpf(1), f(ctx.mpf(1), ctx), ctx)
    assert out.next == ctx.mpf(3) / 4


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
    assert close(out.next, as_mpf, ulps=8)


def test_dehghan_intermediate_points_are_dyadic_here(ctx):
    # On x^2 - 2 from 1 the first-stage point is y = 1 +/- 2/(-4) wait:
    # D = f(0) - f(2) = -4, so dehghan1's y = 1 - 2/(-4) = 3/2 and
    # dehghan2's y = 1 + 2/(-4) = 1/2, both exact.
    f = from_expression("x^2 - 2")
    x0 = ctx.mpf(1)
    assert dehghan1_step(f, x0, f(x0, ctx), ctx).aux == ctx.mpf(3) / 2
    assert dehghan2_step(f, x0, f(x0, ctx), ctx).aux == ctx.mpf(1) / 2


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


def test_steffensen_has_no_intermediate_point(ctx):
    f, x0 = BUILTINS["f3"], ctx.mpf(1)
    assert steffensen_step(f, x0, f(x0, ctx), ctx).aux is None


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


# -- slope helper ----------------------------------------------------------


def test_central_slope_exact_for_quadratics(ctx):
    # [(x+h)^2 - (x-h)^2] / 2h = 2x for any h, and here every quantity is
    # an integer, so the quotient is exact.
    f, x = from_expression("x^2 - 2"), ctx.mpf(3)
    assert central_diff_slope(f, x, f(x, ctx), ctx) == 6


def test_central_slope_approximates_the_derivative_near_a_root(ctx):
    # The probe offset is f(x) itself, so close to the root the quotient
    # approaches f' with error about f(x)^2 |f'''| / 6, here below 1e-6.
    f = BUILTINS["f3"]
    x = ctx.mpf("0.74")
    slope = central_diff_slope(f, x, f(x, ctx), ctx)
    exact = f.eval_jet(x, 1, ctx).coeffs[1]
    assert abs(slope - exact) < ctx.mpf("1e-6")


# -- the mkdf/kou identity --------------------------------------------------


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_mkdf_is_kou_theta_minus_one_with_central_slope(ctx, name):
    f = BUILTINS[name]
    x = ctx.mpf(f.default_x0)
    fx = f(x, ctx)
    s = (f(x + fx, ctx) - f(x - fx, ctx)) / (2 * fx)
    via_kou = kou_step(f, x, fx, -1, s, ctx)
    via_mkdf = mkdf_step(f, x, fx, ctx)
    assert via_mkdf.next == via_kou.next
    assert via_mkdf.aux == via_kou.aux


# -- method metadata ---------------------------------------------------------


def test_method_kind_rejects_unknown_tags():
    with pytest.raises(ValueError):
        MethodKind("newton")


def test_method_labels():
    assert MethodKind("mkdf").label() == "mkdf"
    assert MethodKind("kou").label() == "kou(theta=-1)"
    assert MethodKind("kou", 2).label() == "kou(theta=2)"


def test_claimed_orders():
    for tag, method in METHODS.items():
        assert claimed_order(MethodKind(tag)) == method.order
    assert claimed_order(MethodKind("kou")) == 4
    assert claimed_order(MethodKind("kou", -1)) == 4
    assert claimed_order(MethodKind("kou", 2)) == 3


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
    assert stepper(f, ctx.mpf(0), f(ctx.mpf(0), ctx), ctx).next == ctx.mpf("1.5")


def test_kou_theta_is_normalised_once():
    assert MethodKind("kou") == MethodKind("kou", -1)
    assert MethodKind("kou").theta == -1
    assert MethodKind("mkdf").theta is None


@pytest.mark.parametrize(
    "theta", [pytest.param(float(v), id=v) for v in ("nan", "inf", "-inf", "1e400")]
)
def test_kou_rejects_non_finite_theta(theta):
    with pytest.raises(ValueError, match="theta must be finite"):
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
