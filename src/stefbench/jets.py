"""Truncated Taylor-series (jet) arithmetic.

A jet of order K holds coefficients a_0..a_K of a(t) = sum a_k t^k.
Seeding a jet at a point p with coefficients [p, 1, 0, ..., 0] and pushing
it through a function f yields coefficients f^(k)(p)/k!, i.e. the
normalized Taylor coefficients c_k used throughout the analysis layer.

:class:`JetOps` is the jet algebra, an evaluation adapter for
:func:`stefbench.expr.compile_ast` of the shape ``HPOps`` has. Between
entry and exit a jet is a tuple of mpf coefficients, always of the
adapter's one order; literals enter through ``const``, x through ``var``,
and ``wrap`` hands the result's tuple back unchanged: it is what
``ScalarFunction.eval_jet`` returns.

All operations are exact truncated-series operations: coefficient k of a
result depends only on coefficients 0..k of the inputs. The elementary
functions use the standard convolution recurrences driven by u' (for
g = exp(u): g' = u' g, and so on), so no symbolic differentiation is ever
needed. Each starts from the context's function of the constant term's
raw value, the one the scalar path calls, so that term and its domain
check are the scalar path's. Only sqrt and abs add checks of their own.
"""

from __future__ import annotations

from .errors import DomainError
from .precision import PrecisionContext


class JetOps:
    """Taylor-jet evaluation adapter of one truncation order, at least 1."""

    def __init__(self, ctx: PrecisionContext, order: int):
        self.ctx = ctx
        self.zero = ctx.mpf(0)
        # The constant series 1; const and var reuse its tail and its head.
        self.one = (ctx.mpf(1),) + (self.zero,) * order
        self.make = ctx.mp.make_mpf

    def const(self, text: str):
        return (self.ctx.mpf(text),) + self.one[1:]

    def var(self, p):
        """The identity series at ``p``: (p, 1, 0, ..., 0)."""
        return (self.ctx.mpf(p),) + self.one[:-1]

    def wrap(self, u):
        return u

    # -- arithmetic ------------------------------------------------------

    def neg(self, u):
        return tuple(-a for a in u)

    def add(self, u, v):
        return tuple(a + b for a, b in zip(u, v))

    def sub(self, u, v):
        return tuple(a - b for a, b in zip(u, v))

    def mul(self, u, v):
        zero = self.zero
        return tuple(
            sum((u[j] * v[k - j] for j in range(k + 1)), zero) for k in range(len(u))
        )

    def div(self, u, v):
        if v[0] == 0:
            raise DomainError("jet division by a series with zero constant term")
        out = []
        for k, acc in enumerate(u):
            for j in range(k):
                acc -= out[j] * v[k - j]
            out.append(acc / v[0])
        return tuple(out)

    def pow(self, u, n: int):
        if n < 0:
            return self.div(self.one, self.pow(u, -n))
        result = self.one
        while n:
            if n & 1:
                result = self.mul(result, u)
            u = self.mul(u, u) if n > 1 else u
            n >>= 1
        return result

    # -- elementary functions --------------------------------------------
    #
    # Writing u for the input and v for the result, each recurrence below
    # comes from a first-order ODE satisfied by the pair, matched
    # coefficientwise. exp, sin and cos solve v' = u' g, with g = v, cos u
    # and -sin u; ln and arctan solve v' = u' / w, with w = u and 1 + u^2.

    def _du_times(self, u, g, k: int):
        """The sum of j u_j g_(k-j) over j = 1..k, which v' = u' g sets to k v_k."""
        return sum((j * u[j] * g[k - j] for j in range(1, k + 1)), self.zero)

    def _du_over(self, u, w, v0):
        """The v with v_0 = v0 and v' = u' / w, matching w v' = u' coefficientwise."""
        v = [v0]
        for k in range(1, len(u)):
            acc = k * u[k]
            for j in range(1, k):
                acc -= j * v[j] * w[k - j]
            v.append(acc / (k * w[0]))
        return tuple(v)

    def exp(self, u):
        v = [self.make(self.ctx.exp(u[0]._mpf_))]
        for k in range(1, len(u)):
            v.append(self._du_times(u, v, k) / k)
        return tuple(v)

    def ln(self, u):
        return self._du_over(u, u, self.make(self.ctx.ln(u[0]._mpf_)))

    def sin_cos(self, u):
        """(sin u, cos u), from one call of the context's ``cos_sin``."""
        c0, s0 = self.ctx.cos_sin(u[0]._mpf_)
        s, c = [self.make(s0)], [self.make(c0)]
        for k in range(1, len(u)):
            s.append(self._du_times(u, c, k) / k)
            c.append(-self._du_times(u, s, k) / k)
        return tuple(s), tuple(c)

    def sin(self, u):
        return self.sin_cos(u)[0]

    def cos(self, u):
        return self.sin_cos(u)[1]

    def arctan(self, u):
        w = self.add(self.one, self.mul(u, u))  # 1 + u^2
        return self._du_over(u, w, self.make(self.ctx.atan(u[0]._mpf_)))

    def sqrt(self, u):
        if u[0] <= 0:
            raise DomainError("sqrt of a series with non-positive constant term")
        v = [self.make(self.ctx.sqrt(u[0]._mpf_))]
        for k in range(1, len(u)):
            acc = u[k]
            for j in range(1, k):
                acc -= v[j] * v[k - j]
            v.append(acc / (2 * v[0]))
        return tuple(v)

    def abs(self, u):
        if u[0] > 0:
            return u
        if u[0] < 0:
            return self.neg(u)
        raise DomainError("abs of a series with zero constant term is not differentiable")
