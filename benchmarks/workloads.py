"""The benchmark's workloads: their ops, the outcome each op records, and
the checks that compare an outcome with the one recorded in expected.json.

One op is the work that one ``stefbench`` CLI command does, including
building its ``PrecisionContext``. Ops call the package through
``stefbench.<name>`` at call time, so the tracer in ``tracing.py`` can
substitute instrumented callables without this module knowing.

Workloads (the seed only permutes the op order within each pass):

    replay-512   one op = run_benchmark(PrecisionContext(512)), the full
                 49-cell replay with diagnostics (``stefbench bench``)
    solve-2048   one op = solve(method, f, x0, SolveConfig()) in tolerance
                 mode, 9 methods x 7 built-ins from the table x0 (63 ops)
    order-4096   one op = a ``coc`` command for mkdf, cordero and
                 kou(theta=-1) on each built-in (21 ops) or a ``constant``
                 command on each built-in (7 ops)
"""

from __future__ import annotations

import random
import time
from typing import Callable, NamedTuple

from mpmath.ctx_mp import MPContext

import stefbench
from stefbench import FUNCTION_NAMES, METHOD_TAGS, MethodKind, SolveConfig

COC_METHODS = ("mkdf", "cordero", "kou")
COC_ITERATIONS = 6  # the CLI default of ``coc`` and ``constant``
RHO_TOLERANCE = 1e-3
C_RELATIVE_TOLERANCE = 1e-10


class Op(NamedTuple):
    key: str  # stable name, the key of the op's expected outcome
    kind: str  # "replay", "solve", "coc" or "constant"
    run: Callable[[], object]


class Workload(NamedTuple):
    name: str
    bits: int
    ops: tuple
    reference_kernel_s: float  # median of host_kernel(bits) on the reference host

    def passes(self, seed: int):
        """Endless seeded passes; each is every op once, in a fresh order."""
        rng = random.Random(seed)
        while True:
            order = list(self.ops)
            rng.shuffle(order)
            yield order


# -- ops -----------------------------------------------------------------


def _kind(tag: str) -> MethodKind:
    # As the CLI builds it: kou always carries its theta, -1 by default.
    return MethodKind("kou", -1) if tag == "kou" else MethodKind(tag)


def _replay(bits):
    def run():
        ctx = stefbench.PrecisionContext(bits)
        return ctx, stefbench.run_benchmark(ctx)

    return run


def _solve(bits, tag, name):
    def run():
        ctx = stefbench.PrecisionContext(bits)
        f = stefbench.get_function(name)
        trace = stefbench.solve(_kind(tag), f, ctx.mpf(f.default_x0), SolveConfig(), ctx)
        return ctx, name, trace

    return run


def _coc(bits, tag, name):
    def run():
        ctx = stefbench.PrecisionContext(bits)
        f = stefbench.get_function(name)
        root = stefbench.refine_root(f, f.reference_root, ctx)
        trace = stefbench.solve(
            _kind(tag),
            f,
            ctx.mpf(f.default_x0),
            SolveConfig(fixed_iterations=COC_ITERATIONS),
            ctx,
            reference_root=root,
        )
        return ctx, stefbench.coc(trace, ctx)

    return run


def _constant(bits, name):
    def run():
        ctx = stefbench.PrecisionContext(bits)
        f = stefbench.get_function(name)
        root = stefbench.refine_root(f, f.default_x0, ctx)
        trace = stefbench.solve(
            MethodKind("mkdf"),
            f,
            ctx.mpf(f.default_x0),
            SolveConfig(fixed_iterations=COC_ITERATIONS),
            ctx,
            reference_root=root,
        )
        return ctx, stefbench.error_constant(f, ctx, trace=trace, root=root)

    return run


def _replay_ops(bits):
    return (Op("replay", "replay", _replay(bits)),)


def _solve_ops(bits):
    return tuple(
        Op(f"{tag}/{name}", "solve", _solve(bits, tag, name))
        for tag in METHOD_TAGS
        for name in FUNCTION_NAMES
    )


def _order_ops(bits):
    cocs = [
        Op(f"coc/{tag}/{name}", "coc", _coc(bits, tag, name))
        for tag in COC_METHODS
        for name in FUNCTION_NAMES
    ]
    constants = [Op(f"constant/{name}", "constant", _constant(bits, name)) for name in FUNCTION_NAMES]
    return tuple(cocs + constants)


# The reference kernel times were measured on the 2-core host that
# recorded the baseline; they only fix the unit the times are scaled to.
_BUILDERS = {
    "replay-512": (512, _replay_ops, 0.0042),
    "solve-2048": (2048, _solve_ops, 0.0051),
    "order-4096": (4096, _order_ops, 0.0126),
}

NAMES = tuple(_BUILDERS)


def prepare(name: str) -> Workload:
    bits, build, reference_kernel_s = _BUILDERS[name]
    return Workload(name, bits, build(bits), reference_kernel_s)


# -- outcomes --------------------------------------------------------------


def exact(v) -> str:
    """An mpf as its exact binary value, sign*man*2^exp, for equality tests."""
    sign, man, exp, _ = v._mpf_
    return f"{'-' if sign else ''}{man:#x}p{exp}"


def _replay_outcome(result):
    _, report = result
    return {
        "records": [
            [r.cell.table_id, r.cell.method, r.cell.function,
             exact(r.computed_value), r.status, r.match]
            for r in report.records
        ],
        "matched": report.matched,
        "diagnostics": [
            [d.cell.table_id, d.cell.method,
             [[n, exact(v)] for n, v in d.better_counts],
             [[tag, exact(v)] for tag, v in d.alt_methods]]
            for d in report.diagnostics
        ],
    }


def _solve_outcome(result):
    _, _, trace = result
    return {"status": trace.status}


def _coc_outcome(result):
    ctx, est = result
    return {"rho": [ctx.nstr(r, 20) for r in est.per_step]}


def _constant_outcome(result):
    ctx, report = result
    return {"c": [ctx.nstr(c, 30) for c in report.c]}


OUTCOME = {
    "replay": _replay_outcome,
    "solve": _solve_outcome,
    "coc": _coc_outcome,
    "constant": _constant_outcome,
}


# -- checks ----------------------------------------------------------------

# The built-ins written out in mpmath directly, so that converged solves
# are checked by an evaluation that shares no code with the program's
# expression interpreter.
_DIRECT = {
    "f1": lambda mp, x: mp.sin(x) ** 2 - x**2 + 1,
    "f2": lambda mp, x: x**2 - mp.exp(x) - 3 * x + 2,
    "f3": lambda mp, x: mp.cos(x) - x,
    "f4": lambda mp, x: mp.cos(x) - x * mp.exp(x) + x**2,
    "f5": lambda mp, x: mp.exp(x) - mp.mpf("1.5") - mp.atan(x),
    "f6": lambda mp, x: 8 * x - mp.cos(x) - 2 * x**2,
    "f7": lambda mp, x: mp.ln(x**2 + x + 2) - x + 1,
}


def check(op: Op, result, expected) -> str | None:
    """None when ``result`` agrees with ``expected``, else what differs.

    f-call counts are never compared: evaluating each point once changes
    them on purpose.
    """
    got = OUTCOME[op.kind](result)
    if op.kind == "replay":
        for part in ("matched", "records", "diagnostics"):
            if got[part] != expected[part]:
                return f"{op.key}: {part} differ from the recorded replay"
        return None
    if op.kind == "solve":
        if got["status"] != expected["status"]:
            return f"{op.key}: status {got['status']}, recorded {expected['status']}"
        ctx, name, trace = result
        if trace.status == stefbench.CONVERGED:
            residual = abs(_DIRECT[name](ctx.mp, trace.final.x))
            if residual > ctx.convergence_floor:
                return f"{op.key}: converged but |f(x)| = {ctx.nstr(residual, 5)} recomputed"
        return None
    ctx = result[0]
    if op.kind == "coc":
        got_rho, want_rho = got["rho"], expected["rho"]
        if len(got_rho) != len(want_rho):
            return f"{op.key}: {len(got_rho)} rho values, recorded {len(want_rho)}"
        for g, w in zip(got_rho, want_rho):
            if abs(ctx.mpf(g) - ctx.mpf(w)) > RHO_TOLERANCE:
                return f"{op.key}: rho {g}, recorded {w}"
        return None
    if len(got["c"]) != len(expected["c"]):
        return f"{op.key}: {len(got['c'])} coefficients, recorded {len(expected['c'])}"
    for k, (g, w) in enumerate(zip(got["c"], expected["c"]), start=1):
        g, w = ctx.mpf(g), ctx.mpf(w)
        if abs(g - w) > C_RELATIVE_TOLERANCE * abs(w):
            return f"{op.key}: c{k} = {ctx.nstr(g, 15)}, recorded {ctx.nstr(w, 15)}"
    return None




# -- host speed ------------------------------------------------------------


def host_kernel(bits: int):
    """A timer for a fixed computation that shares no code with stefbench.

    Each call evaluates the seven built-ins, written out in mpmath, at
    their table x0 at ``bits``, repeated so that one call takes a few ms
    at any precision, and returns its duration in s. Its time follows the
    host's speed, which other tenants move by tens of percent within
    minutes; the program's changes never move it.
    """
    mp = MPContext()
    mp.prec = bits
    points = [(_DIRECT[name], mp.mpf(stefbench.get_function(name).default_x0)) for name in FUNCTION_NAMES]
    reps = max(1, 4096 // bits)

    def timed():
        start = time.perf_counter()
        for _ in range(reps):
            for f, x in points:
                f(mp, x)
        return time.perf_counter() - start

    return timed
