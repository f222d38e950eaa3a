"""Iteration driver: run a kernel to a termination condition.

``solve`` never raises for numerical trouble; every failure mode ends up
in the trace status so a benchmark over misbehaving methods completes and
reports. Statuses:

    converged                |f(x_n)| at or below the stop tolerance
    fixed_count_completed    benchmark mode ran its exact step count
    max_iterations_reached   tolerance mode ran out of steps
    denominator_breakdown    a kernel denominator fell below the floor
    diverged                 |x_n| exceeded the divergence bound
    domain_error             f was evaluated outside its domain

The last two keep the error's message in ``IterationTrace.detail``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import BreakdownError, DomainError, RefinementError
from .functions import CountingFunction
from .methods import MethodKind
from .precision import PrecisionContext

CONVERGED = "converged"
FIXED_COUNT_COMPLETED = "fixed_count_completed"
MAX_ITERATIONS_REACHED = "max_iterations_reached"
DENOMINATOR_BREAKDOWN = "denominator_breakdown"
DIVERGED = "diverged"
DOMAIN_ERROR = "domain_error"

SUCCESS_STATUSES = (CONVERGED, FIXED_COUNT_COMPLETED)


@dataclass
class SolveConfig:
    max_iterations: int = 100
    fixed_iterations: int | None = None
    f_tolerance: object = None  # defaults to ctx.convergence_floor
    divergence_bound: object = None  # defaults to 1e10


class TraceEntry(NamedTuple):
    n: int
    x: object
    fx: object
    e: object  # x - reference_root, or None when no root is known


@dataclass
class IterationTrace:
    iterates: list = field(default_factory=list)
    status: str = ""
    f_call_total: int = 0
    detail: str | None = None  # the breakdown or domain-error message

    @property
    def final(self) -> TraceEntry:
        return self.iterates[-1]

    def residuals(self):
        return [abs(entry.fx) for entry in self.iterates]

    def errors(self):
        """|e_n| for every entry; requires a reference root."""
        if not self.iterates or self.iterates[0].e is None:
            return None
        return [abs(entry.e) for entry in self.iterates]


def solve(
    method,
    f,
    x0,
    cfg: SolveConfig,
    ctx: PrecisionContext,
    reference_root=None,
) -> IterationTrace:
    """Run ``method`` from ``x0`` per the termination rules of ``cfg``.

    An invalid ``cfg`` or a non-finite ``x0`` raises ``ValueError``.
    """
    kind = MethodKind(method) if isinstance(method, str) else method
    stepper = kind.stepper()

    if cfg.fixed_iterations is not None and cfg.fixed_iterations < 1:
        raise ValueError("fixed_iterations must be >= 1")
    if cfg.max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    tol = ctx.convergence_floor if cfg.f_tolerance is None else ctx.mpf(cfg.f_tolerance)
    if not ctx.mp.isfinite(tol):
        raise ValueError(f"f_tolerance must be finite, got {cfg.f_tolerance}")
    if tol < ctx.convergence_floor:
        raise ValueError("f_tolerance must not be below ctx.convergence_floor")
    x = ctx.mpf(x0)
    if not ctx.mp.isfinite(x):
        raise ValueError(f"x0 must be finite, got {x0}")
    bound = ctx.mpf("1e10") if cfg.divergence_bound is None else ctx.mpf(cfg.divergence_bound)

    fixed = cfg.fixed_iterations
    # In fixed mode the tolerance no longer stops the run, but a residual at
    # the convergence floor still does: differencing pure roundoff would only
    # manufacture a breakdown.
    stop_floor = ctx.convergence_floor if fixed is not None else tol

    counted = CountingFunction(f)
    root = None if reference_root is None else ctx.mpf(reference_root)

    def entry(n, x, fx):
        e = None if root is None else x - root
        return TraceEntry(n, x, fx, e)

    trace = IterationTrace()
    try:
        fx = counted(x, ctx)
        trace.iterates.append(entry(0, x, fx))
        for n in range(1, (fixed or cfg.max_iterations) + 1):
            if abs(fx) <= stop_floor:
                break
            x = stepper(counted, x, ctx).next
            fx = counted(x, ctx)
            trace.iterates.append(entry(n, x, fx))
            if abs(x) > bound:
                trace.status = DIVERGED
                break
        if not trace.status:
            if abs(fx) <= stop_floor:
                trace.status = CONVERGED
            else:
                trace.status = FIXED_COUNT_COMPLETED if fixed else MAX_ITERATIONS_REACHED
    except BreakdownError as exc:
        trace.status, trace.detail = DENOMINATOR_BREAKDOWN, str(exc)
    except DomainError as exc:
        trace.status, trace.detail = DOMAIN_ERROR, str(exc)
    trace.f_call_total = counted.calls
    return trace


def refine_root(f, seed, ctx: PrecisionContext):
    """Polish a root seed to |f(x*)| <= ctx.convergence_floor using mkdf.

    Table roots are printed to 6 decimals; error analysis needs the full
    working precision, so every e_n in this package is measured against a
    refined root, never against the printed seed.
    """
    trace = solve("mkdf", f, seed, SolveConfig(max_iterations=60), ctx)
    if trace.status != CONVERGED:
        why = f": {trace.detail}" if trace.detail else ""
        raise RefinementError(f"refinement from {seed} ended {trace.status}{why}")
    return trace.final.x
