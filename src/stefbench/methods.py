"""One-step iteration kernels and the registry that describes them.

Every kernel is a pure function ``(f, x, fx, ctx) -> x'`` taking f as a
callable ``f(x, ctx)`` and ``fx = f(x, ctx)``, which the driver has
already evaluated for the trace, so a kernel never evaluates f at x
itself. It returns the next iterate x' alone, an mpf of ``ctx``; an
intermediate point such as y is computed only for f(y). Denominators are
checked against ``ctx.breakdown_floor`` and raise :class:`BreakdownError`
when too small; no kernel falls back to a different formula, so a
benchmark run shows exactly where each printed method fails.

The difference ``D = f(x + f(x)) - f(x - f(x))`` that appears twice in the
two-line methods is computed once and reused, which changes nothing
mathematically and halves the f-call count.

The kou update is written once, in :func:`kou_step`. mkdf is ``kou_step``
at theta = -1 with :func:`central_diff_slope`, kou_fd with the forward
difference quotient and the registry's kou with the jet slope f'(x); every
divisor, each slope included, is floor-checked.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

from mpmath import isfinite

from .errors import BreakdownError
from .precision import PrecisionContext

# The kou parameter at which kou is mkdf, and kou's default.
MKDF_THETA = -1


class MethodKind(NamedTuple("MethodKind", [("tag", str), ("theta", object)])):
    """A method identifier; ``theta`` only applies to the kou family.

    kou's theta defaults to :data:`MKDF_THETA`; every other method keeps
    ``theta`` None.
    """

    __slots__ = ()

    def __new__(cls, tag: str, theta=None):
        if tag not in METHODS:
            known = ", ".join(METHODS)
            raise ValueError(f"unknown method {tag!r} (known: {known})")
        if tag != "kou":
            if theta is not None:
                raise ValueError(f"theta only applies to kou, not {tag!r}")
        else:
            theta = MKDF_THETA if theta is None else theta
            if not isfinite(theta):
                raise ValueError(f"theta must be finite, got {theta}")
        return super().__new__(cls, tag, theta)

    def stepper(self):
        """Bind this kind to a ``(f, x, fx, ctx) -> x'`` callable."""
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


def central_diff_slope(f, x, fx, ctx: PrecisionContext):
    """[f(x + f(x)) - f(x - f(x))] / (2 f(x)), exactly as written.

    ``fx = f(x, ctx)``, as every kernel takes it. No step-size heuristics:
    the offset is f(x) itself. Both D and f(x) are checked against the
    breakdown floor here.
    """
    d = _central_difference(f, x, fx, ctx)
    # d is about 2 f'(x) f(x), so where |f'(x)| is large d passes the floor
    # check while f(x) lies below the floor; check f(x) the same way.
    _check_denominator(fx, "f(x)", ctx)
    return d / (2 * fx)


def steffensen_step(f, x, fx, ctx: PrecisionContext):
    d = _forward_difference(f, x, fx, ctx)
    return x - fx**2 / d


def jain_step(f, x, fx, ctx: PrecisionContext):
    d = _forward_difference(f, x, fx, ctx)
    y = x - fx**2 / d
    fy = f(y, ctx)
    _check_denominator(fx - fy, "f(x) - f(y)", ctx)
    return x - fx**3 / (d * (fx - fy))


def dehghan1_step(f, x, fx, ctx: PrecisionContext):
    d = _central_difference(f, x, fx, ctx)
    y = x - 2 * fx**2 / d
    fy = f(y, ctx)
    return x - 2 * fx * (fx + fy) / d


def dehghan2_step(f, x, fx, ctx: PrecisionContext):
    d = _central_difference(f, x, fx, ctx)
    y = x + 2 * fx**2 / d
    fy = f(y, ctx)
    return x - 2 * fx * (fy - fx) / d


def dehghan3_step(f, x, fx, ctx: PrecisionContext):
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
    return x - 2 * fx / denom


def cordero_step(f, x, fx, ctx: PrecisionContext):
    t = 2 * fx**2 / _central_difference(f, x, fx, ctx)
    y = x - t
    fy = f(y, ctx)
    _check_denominator(2 * fy - fx, "2f(y) - f(x)", ctx)
    return x - t * (fy - fx) / (2 * fy - fx)


def kou_step(f, x, fx, theta, s, ctx: PrecisionContext):
    """Kou family member with parameter theta and supplied slope s."""
    _check_denominator(s, "slope", ctx)
    y = x - fx / s
    fy = f(y, ctx)
    nxt = x - theta * (fx + fy) / s
    if theta != 1:
        _check_denominator(fx - fy, "f(x) - f(y)", ctx)
        # An int's 1 - theta is exact. A float's is taken in the context:
        # binary64 rounds 1 - 0.1, and that error times a first-order term
        # would leave the method linear.
        c = 1 - theta if isinstance(theta, int) else 1 - ctx.mpf(theta)
        nxt = nxt - c * fx**2 / (s * (fx - fy))
    return nxt


def _kou_jet_step(f, x, fx, ctx: PrecisionContext, theta=MKDF_THETA):
    """kou with the exact slope f'(x) from a first-order jet."""
    return kou_step(f, x, fx, theta, f.eval_jet(x, 1, ctx)[1], ctx)


def kou_fd_step(f, x, fx, ctx: PrecisionContext):
    """theta = -1 with the forward-difference slope [f(x+f(x)) - f(x)]/f(x)."""
    _check_denominator(fx, "f(x)", ctx)
    return kou_step(f, x, fx, MKDF_THETA, _forward_difference(f, x, fx, ctx) / fx, ctx)


def mkdf_step(f, x, fx, ctx: PrecisionContext):
    """Fourth-order derivative-free kernel: kou theta = -1 with the
    central difference quotient as slope."""
    return kou_step(f, x, fx, MKDF_THETA, central_diff_slope(f, x, fx, ctx), ctx)


class Method(NamedTuple):
    """One registry entry, the one source of every per-method fact.

    ``step`` is the ``(f, x, fx, ctx) -> x'`` kernel, ``order``
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
