"""Iteration driver: run a kernel to a termination condition.

``solve`` never raises for numerical trouble; every failure mode ends up
in the trace status so a benchmark over misbehaving methods completes and
reports. Statuses:

    converged                |f(x_n)| at or below the tolerance; a fixed-count
                             run takes none and stops at the convergence floor
    fixed_count_completed    fixed-count mode ran its exact step count
    max_iterations_reached   tolerance mode ran out of steps
    denominator_breakdown    a kernel denominator fell below the floor
    diverged                 |x_n| exceeded DIVERGENCE_BOUND, or x_n is NaN
    domain_error             f was evaluated outside its domain

``denominator_breakdown`` and ``domain_error`` keep the error's message
in ``IterationTrace.detail``; a NaN iterate names itself there.

The trace is the one record of a run: ``iterates[n]`` holds x_n and
f(x_n), and a run solved with a ``reference_root`` stores that root once
on the trace, from which ``errors()`` derives |x_n - root|. Each
iterate's f(x_n) is evaluated once: the trace records it and the next
step's kernel receives it, so a fixed-count run of k steps spends
``1 + k * Method.evals`` f-calls.
"""

from __future__ import annotations

import math
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

DIVERGENCE_BOUND = 10**10
MAX_ITERATIONS = 100  # the tolerance-mode step limit when none is given
REFINE_MAX_ITERATIONS = 60  # refine_root's step limit, on every rung

# refine_root's ladder has no rung at or below this precision: there the
# cost of mpmath's arithmetic is mostly per-operation Python overhead, so a
# rung's context and compiled expression would cost more than it saves.
LADDER_FLOOR_BITS = 256


class SolveConfig(NamedTuple):
    max_iterations: int | None = None  # tolerance mode only; defaults to MAX_ITERATIONS
    fixed_iterations: int | None = None
    f_tolerance: object = None  # tolerance mode only; defaults to ctx.convergence_floor


class TraceEntry(NamedTuple):
    x: object
    fx: object


class IterationTrace:
    """The record of one run, the one record ``solve`` fills in as it goes.

    ``detail`` is the breakdown or domain-error message, and ``root`` the
    reference root, or None when none is known.
    """

    def __init__(
        self,
        iterates: list | None = None,
        status: str = "",
        f_call_total: int = 0,
        jet_call_total: int = 0,
        detail: str | None = None,
        root=None,
    ):
        self.iterates = [] if iterates is None else iterates
        self.status = status
        self.f_call_total = f_call_total
        self.jet_call_total = jet_call_total
        self.detail = detail
        self.root = root

    @property
    def final(self) -> TraceEntry:
        return self.iterates[-1]

    def errors(self):
        """|x_n - root| for every entry, or None without a root."""
        if self.root is None:
            return None
        return [abs(entry.x - self.root) for entry in self.iterates]


def solve(
    method,
    f,
    x0,
    cfg: SolveConfig,
    ctx: PrecisionContext,
    reference_root=None,
) -> IterationTrace:
    """Run ``method`` from ``x0`` per the termination rules of ``cfg``.

    An invalid ``cfg`` or a non-finite ``x0`` raises ``ValueError``; so does
    an ``f_tolerance`` or a ``max_iterations`` with ``fixed_iterations``,
    which runs its own step count.
    """
    kind = MethodKind(method) if isinstance(method, str) else method
    stepper = kind.stepper()

    fixed = cfg.fixed_iterations
    if fixed is not None and fixed < 1:
        raise ValueError("fixed_iterations must be >= 1")
    if cfg.max_iterations is not None and cfg.max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if fixed is not None and cfg.f_tolerance is not None:
        raise ValueError("f_tolerance does not apply to a fixed-count run")
    if fixed is not None and cfg.max_iterations is not None:
        raise ValueError("max_iterations does not apply to a fixed-count run")
    steps = fixed or cfg.max_iterations or MAX_ITERATIONS
    # A fixed-count run takes no tolerance, but a residual at the convergence
    # floor still stops it: differencing pure roundoff would only manufacture
    # a breakdown.
    tol = ctx.convergence_floor if cfg.f_tolerance is None else ctx.mpf(cfg.f_tolerance)
    if not ctx.mp.isfinite(tol):
        raise ValueError(f"f_tolerance must be finite, got {cfg.f_tolerance}")
    if tol < ctx.convergence_floor:
        raise ValueError("f_tolerance must not be below ctx.convergence_floor")
    x = ctx.mpf(x0)
    if not ctx.mp.isfinite(x):
        raise ValueError(f"x0 must be finite, got {x0}")
    bound = ctx.mpf(DIVERGENCE_BOUND)

    counted = CountingFunction(f)
    trace = IterationTrace(root=None if reference_root is None else ctx.mpf(reference_root))
    try:
        fx = counted(x, ctx)
        trace.iterates.append(TraceEntry(x, fx))
        for _ in range(steps):
            if abs(fx) <= tol:
                break
            x = stepper(counted, x, fx, ctx).next
            fx = counted(x, ctx)
            trace.iterates.append(TraceEntry(x, fx))
            if not abs(x) <= bound:  # so that a NaN iterate diverges too
                trace.status = DIVERGED
                if ctx.mp.isnan(x):
                    trace.detail = f"x_{len(trace.iterates) - 1} is NaN"
                break
        if not trace.status:
            if abs(fx) <= tol:
                trace.status = CONVERGED
            else:
                trace.status = FIXED_COUNT_COMPLETED if fixed else MAX_ITERATIONS_REACHED
    except BreakdownError as exc:
        trace.status, trace.detail = DENOMINATOR_BREAKDOWN, str(exc)
    except DomainError as exc:
        trace.status, trace.detail = DOMAIN_ERROR, str(exc)
    trace.f_call_total = counted.calls
    trace.jet_call_total = counted.jet_calls
    return trace


def _rungs(bits: int) -> list:
    """The precisions, ascending, that refine_root converges on below ``bits``.

    Working down from ``bits``, each rung is ceil((next + 64) / 3) bits,
    so 3r - 64 >= next: one fourth-order step from a residual near the
    rung's breakdown floor 2^(-0.9 r) carries more than the next
    precision's bits. Rungs stop above LADDER_FLOOR_BITS, so 2048 bits
    gives [704], 4096 gives [484, 1387] and 512 or fewer gives none.
    """
    rungs = []
    r = math.ceil((bits + 64) / 3)
    while r > LADDER_FLOOR_BITS:
        rungs.append(r)
        r = math.ceil((r + 64) / 3)
    return rungs[::-1]


def refine_root(f, seed, ctx: PrecisionContext):
    """Polish a root seed to |f(x*)| <= ctx.convergence_floor using mkdf.

    Table roots are printed to 6 decimals; error analysis needs the full
    working precision, so every e_n in this package is measured against a
    refined root, never against the printed seed.

    A fourth-order step needs little more precision than a quarter of the
    bits it will get right (precision doubling; Brent & Zimmermann,
    *Modern Computer Arithmetic*, 4.2). So mkdf first converges on each
    rung of ``_rungs(ctx.bits)`` in turn, in tolerance mode down to the
    rung's ``breakdown_floor``, and the full-precision solve then starts
    from the top rung's root: it usually takes one step, and it alone
    decides the result. Stopping each rung at its breakdown floor keeps
    mkdf from dividing by a residual that lies between a context's two
    floors. If any rung ends other than converged, the ladder is dropped
    and the full-precision solve starts from ``seed``, as it always does
    at 512 bits or fewer, where there are no rungs.
    """
    start = seed
    for bits in _rungs(ctx.bits):
        rung = PrecisionContext(bits)
        cfg = SolveConfig(max_iterations=REFINE_MAX_ITERATIONS, f_tolerance=rung.breakdown_floor)
        trace = solve("mkdf", f, start, cfg, rung)
        if trace.status != CONVERGED:
            start = seed
            break
        start = trace.final.x
    trace = solve("mkdf", f, start, SolveConfig(max_iterations=REFINE_MAX_ITERATIONS), ctx)
    if trace.status != CONVERGED:
        why = f": {trace.detail}" if trace.detail else ""
        raise RefinementError(f"refinement from {seed} ended {trace.status}{why}")
    return trace.final.x
