"""One-step iteration kernels and the registry that describes them.

Every kernel is a pure function ``(f, x, fx, ctx) -> StepOutcome`` taking
f as a callable ``f(x, ctx)`` and ``fx = f(x, ctx)``, which the driver has
already evaluated for the trace, so a kernel never evaluates f at x
itself. Denominators are checked against ``ctx.breakdown_floor`` and
raise :class:`BreakdownError` when too small; no kernel falls back to a
different formula, so a benchmark run shows exactly where each printed
method fails.

The difference ``D = f(x + f(x)) - f(x - f(x))`` that appears twice in the
two-line methods is computed once and reused, which changes nothing
mathematically and halves the f-call count.

``mkdf_step`` and ``kou_step`` with theta = -1 and the central slope are
the same method in two notations. To keep them bit-for-bit identical they
share one update routine (:func:`_kou_iterate`); the mkdf form
y = x - 2 f(x)^2 / D is recovered from y = x - f(x)/s with
s = D / (2 f(x)) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from mpmath import isfinite

from .errors import BreakdownError
from .jets import jet_eval
from .precision import PrecisionContext

# The kou parameter at which kou is mkdf, and kou's default.
MKDF_THETA = -1


@dataclass(frozen=True)
class StepOutcome:
    next: object
    aux: object | None


@dataclass(frozen=True)
class MethodKind:
    """A method identifier; ``theta`` only applies to the kou family.

    kou's theta defaults to :data:`MKDF_THETA`; every other method keeps
    ``theta`` None.
    """

    tag: str
    theta: object = None

    def __post_init__(self):
        if self.tag not in METHODS:
            known = ", ".join(METHODS)
            raise ValueError(f"unknown method {self.tag!r} (known: {known})")
        if self.tag != "kou":
            if self.theta is not None:
                raise ValueError(f"theta only applies to kou, not {self.tag!r}")
            return
        theta = MKDF_THETA if self.theta is None else self.theta
        if not isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta}")
        object.__setattr__(self, "theta", theta)

    def stepper(self):
        """Bind this kind to a ``(f, x, fx, ctx) -> StepOutcome`` callable."""
        step = METHODS[self.tag].step
        return step if self.theta is None else partial(step, theta=self.theta)

    def label(self) -> str:
        return self.tag if self.theta is None else f"{self.tag}(theta={self.theta})"


def _check_denominator(value, what: str, ctx: PrecisionContext):
    if abs(value) < ctx.breakdown_floor:
        raise BreakdownError(
            f"denominator {what} fell below the breakdown floor "
            f"(|{ctx.nstr(value, 5)}| < 2^(-0.9*{ctx.bits}))"
        )
    return value


def _forward_difference(f, x, fx, ctx: PrecisionContext):
    return _check_denominator(f(x + fx, ctx) - fx, "f(x+f(x)) - f(x)", ctx)


def _central_difference(f, x, fx, ctx: PrecisionContext):
    return _check_denominator(f(x + fx, ctx) - f(x - fx, ctx), "f(x+f(x)) - f(x-f(x))", ctx)


def _central_slope(f, x, fx, ctx: PrecisionContext):
    d = _central_difference(f, x, fx, ctx)
    # 2*fx cannot be near zero when d passed the floor check, but a zero
    # residual would still divide by zero; guard it the same way.
    _check_denominator(fx, "f(x)", ctx)
    return d / (2 * fx)


def central_diff_slope(f, x, ctx: PrecisionContext):
    """[f(x + f(x)) - f(x - f(x))] / (2 f(x)), exactly as written.

    No step-size heuristics: the offset is f(x) itself. The caller is
    expected to have checked that |f(x)| is above the convergence floor.
    """
    return _central_slope(f, x, f(x, ctx), ctx)


def steffensen_step(f, x, fx, ctx: PrecisionContext) -> StepOutcome:
    d = _forward_difference(f, x, fx, ctx)
    return StepOutcome(x - fx**2 / d, None)


def jain_step(f, x, fx, ctx: PrecisionContext) -> StepOutcome:
    d = _forward_difference(f, x, fx, ctx)
    y = x - fx**2 / d
    fy = f(y, ctx)
    _check_denominator(fx - fy, "f(x) - f(y)", ctx)
    return StepOutcome(x - fx**3 / (d * (fx - fy)), y)


def dehghan1_step(f, x, fx, ctx: PrecisionContext) -> StepOutcome:
    d = _central_difference(f, x, fx, ctx)
    y = x - 2 * fx**2 / d
    fy = f(y, ctx)
    return StepOutcome(x - 2 * fx * (fx + fy) / d, y)


def dehghan2_step(f, x, fx, ctx: PrecisionContext) -> StepOutcome:
    d = _central_difference(f, x, fx, ctx)
    y = x + 2 * fx**2 / d
    fy = f(y, ctx)
    return StepOutcome(x - 2 * fx * (fy - fx) / d, y)


def dehghan3_step(f, x, fx, ctx: PrecisionContext) -> StepOutcome:
    """The three-step variant exactly as printed.

    x' = x - 2 f(x) / [f(y) fu + f(x) fv] with fu, fv the symmetric
    differences at x and y. The printed update is not consistent with the
    other kernels dimensionally (the affine probe f(x) = x from x = 1
    yields 3/4, not the root), and it does not converge on the built-in
    functions; it is kept verbatim so the benchmark reports that honestly.
    """
    fu = _central_difference(f, x, fx, ctx)
    y = x + 2 * fx**2 / fu
    fy = f(y, ctx)
    fv = f(y + fy, ctx) - f(y - fy, ctx)
    denom = fy * fu + fx * fv
    _check_denominator(denom, "f(y)*fu + f(x)*fv", ctx)
    return StepOutcome(x - 2 * fx / denom, y)


def cordero_step(f, x, fx, ctx: PrecisionContext) -> StepOutcome:
    t = 2 * fx**2 / _central_difference(f, x, fx, ctx)
    y = x - t
    fy = f(y, ctx)
    _check_denominator(2 * fy - fx, "2f(y) - f(x)", ctx)
    return StepOutcome(x - t * (fy - fx) / (2 * fy - fx), y)


def _kou_iterate(f, x, fx, theta, s, ctx: PrecisionContext) -> StepOutcome:
    """Shared update for the kou family given the slope s and f(x).

    Kept as a single code path so mkdf and kou(theta=-1, central slope)
    agree to the last bit.
    """
    y = x - fx / s
    fy = f(y, ctx)
    nxt = x - theta * (fx + fy) / s
    if theta != 1:
        _check_denominator(fx - fy, "f(x) - f(y)", ctx)
        nxt = nxt - (1 - theta) * fx**2 / (s * (fx - fy))
    return StepOutcome(nxt, y)


def kou_step(f, x, fx, theta, s, ctx: PrecisionContext) -> StepOutcome:
    """Kou family member with parameter theta and supplied slope s."""
    _check_denominator(s, "slope", ctx)
    return _kou_iterate(f, x, fx, theta, s, ctx)


def _kou_jet_step(f, x, fx, ctx: PrecisionContext, theta=MKDF_THETA) -> StepOutcome:
    """kou with the exact slope f'(x) from a first-order jet."""
    return kou_step(f, x, fx, theta, jet_eval(f, x, 1, ctx).coeffs[1], ctx)


def kou_fd_step(f, x, fx, ctx: PrecisionContext) -> StepOutcome:
    """theta = -1 with the forward-difference slope [f(x+f(x)) - f(x)]/f(x)."""
    _check_denominator(fx, "f(x)", ctx)
    s = _forward_difference(f, x, fx, ctx) / fx
    return _kou_iterate(f, x, fx, MKDF_THETA, s, ctx)


def mkdf_step(f, x, fx, ctx: PrecisionContext) -> StepOutcome:
    """Fourth-order derivative-free kernel: kou theta = -1 with the
    central difference quotient as slope."""
    return _kou_iterate(f, x, fx, MKDF_THETA, _central_slope(f, x, fx, ctx), ctx)


@dataclass(frozen=True)
class Method:
    """One registry entry, the one source of every per-method fact.

    ``step`` is the ``(f, x, fx, ctx) -> StepOutcome`` kernel, ``order``
    the claimed convergence order, ``evals`` the f-evaluations per step,
    f(x_n) included (the kernel spends ``evals - 1`` of them; jet
    evaluations are not f-evaluations), and ``in_tables`` whether the
    reference tables have a column for the method.
    """

    tag: str
    step: Callable
    order: int
    evals: int
    in_tables: bool


# In reference-table row order; the table columns come first.
METHODS = {
    m.tag: m
    for m in (
        Method("steffensen", steffensen_step, 2, 2, True),
        Method("jain", jain_step, 3, 3, True),
        Method("dehghan1", dehghan1_step, 3, 4, True),
        Method("dehghan2", dehghan2_step, 3, 4, True),
        Method("dehghan3", dehghan3_step, 3, 6, True),
        Method("cordero", cordero_step, 4, 4, True),
        Method("mkdf", mkdf_step, 4, 4, True),
        Method("kou", _kou_jet_step, 4, 2, False),
        Method("kou_fd", kou_fd_step, 3, 3, False),
    )
}

METHOD_TAGS = tuple(METHODS)
TABLE_METHODS = tuple(tag for tag, m in METHODS.items() if m.in_tables)


def claimed_order(kind: MethodKind) -> int:
    """The convergence order each method is supposed to have.

    kou's entry holds its order at theta = -1; every other theta loses the
    fourth-order corrector and is third order.
    """
    order = METHODS[kind.tag].order
    return order if kind.theta in (None, MKDF_THETA) else 3
