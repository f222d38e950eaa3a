"""The tests' oracle for the jet path: series arithmetic on coefficient lists.

This is the jet arithmetic the library used before ``stefbench.jets.JetOps``
took it over, written as plain functions: a jet is a list of mpf
coefficients a_0..a_K, and each function runs the same mpf operations in
the same order as that code did, with the same DomainError messages.
:class:`JetListOps` binds them into an adapter for the tests' tree walk.
"""

from stefbench import DomainError, PrecisionContext


def constant(value, order: int, ctx: PrecisionContext):
    return [ctx.mpf(value)] + [ctx.mpf(0)] * order


def seed(point, order: int, ctx: PrecisionContext):
    """The identity series at ``point``: [p, 1, 0, ..., 0]."""
    coeffs = [ctx.mpf(point), ctx.mpf(1)] + [ctx.mpf(0)] * (order - 1)
    return coeffs[: order + 1]


def neg(u):
    return [-a for a in u]


def add(u, v):
    return [a + b for a, b in zip(u, v)]


def sub(u, v):
    return add(u, neg(v))


def mul(u, v, ctx: PrecisionContext):
    out = []
    for k in range(len(u)):
        acc = ctx.mpf(0)
        for j in range(k + 1):
            acc += u[j] * v[k - j]
        out.append(acc)
    return out


def div(u, v):
    if v[0] == 0:
        raise DomainError("jet division by a series with zero constant term")
    out = []
    for k in range(len(u)):
        acc = u[k]
        for j in range(k):
            acc -= out[j] * v[k - j]
        out.append(acc / v[0])
    return out


def power(u, n: int, ctx: PrecisionContext):
    order = len(u) - 1
    if n < 0:
        return div(constant(1, order, ctx), power(u, -n, ctx))
    result = constant(1, order, ctx)
    base = u
    while n:
        if n & 1:
            result = mul(result, base, ctx)
        base = mul(base, base, ctx) if n > 1 else base
        n >>= 1
    return result


def _du_times(u, g, k: int, ctx: PrecisionContext):
    acc = ctx.mpf(0)
    for j in range(1, k + 1):
        acc += j * u[j] * g[k - j]
    return acc


def _du_over(u, w, v0):
    v = [v0]
    for k in range(1, len(u)):
        acc = k * u[k]
        for j in range(1, k):
            acc -= j * v[j] * w[k - j]
        v.append(acc / (k * w[0]))
    return v


def exp(u, ctx: PrecisionContext):
    v = [ctx.mp.make_mpf(ctx.exp(u[0]._mpf_))]
    for k in range(1, len(u)):
        v.append(_du_times(u, v, k, ctx) / k)
    return v


def ln(u, ctx: PrecisionContext):
    return _du_over(u, u, ctx.mp.make_mpf(ctx.ln(u[0]._mpf_)))


def sin_cos(u, ctx: PrecisionContext):
    c0, s0 = ctx.cos_sin(u[0]._mpf_)
    s, c = [ctx.mp.make_mpf(s0)], [ctx.mp.make_mpf(c0)]
    for k in range(1, len(u)):
        s.append(_du_times(u, c, k, ctx) / k)
        c.append(-_du_times(u, s, k, ctx) / k)
    return s, c


def atan(u, ctx: PrecisionContext):
    w = add(constant(1, len(u) - 1, ctx), mul(u, u, ctx))  # 1 + u^2
    return _du_over(u, w, ctx.mp.make_mpf(ctx.atan(u[0]._mpf_)))


def sqrt(u, ctx: PrecisionContext):
    if u[0] <= 0:
        raise DomainError("sqrt of a series with non-positive constant term")
    v = [ctx.mp.make_mpf(ctx.sqrt(u[0]._mpf_))]
    for k in range(1, len(u)):
        acc = u[k]
        for j in range(1, k):
            acc -= v[j] * v[k - j]
        v.append(acc / (2 * v[0]))
    return v


def fabs(u):
    if u[0] > 0:
        return u
    if u[0] < 0:
        return neg(u)
    raise DomainError("abs of a series with zero constant term is not differentiable")


class JetListOps:
    """The functions above as an evaluation adapter of one order."""

    def __init__(self, ctx: PrecisionContext, order: int):
        self.ctx = ctx
        self.order = order
        self.neg, self.add, self.sub, self.div, self.abs = neg, add, sub, div, fabs

    def const(self, text: str):
        return constant(self.ctx.mpf(text), self.order, self.ctx)

    def var(self, p):
        return seed(p, self.order, self.ctx)

    def wrap(self, u):
        return tuple(u)

    def mul(self, u, v):
        return mul(u, v, self.ctx)

    def pow(self, u, n):
        return power(u, n, self.ctx)

    def exp(self, u):
        return exp(u, self.ctx)

    def ln(self, u):
        return ln(u, self.ctx)

    def sin(self, u):
        return sin_cos(u, self.ctx)[0]

    def cos(self, u):
        return sin_cos(u, self.ctx)[1]

    def arctan(self, u):
        return atan(u, self.ctx)

    def sqrt(self, u):
        return sqrt(u, self.ctx)
