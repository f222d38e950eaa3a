"""Truncated Taylor-series (jet) arithmetic.

A :class:`TaylorJet` stores coefficients a_0..a_K of a(t) = sum a_k t^k.
Seeding a jet at a point p with coefficients [p, 1, 0, ..., 0] and pushing
it through a function f yields coefficients f^(k)(p)/k!, i.e. the
normalized Taylor coefficients c_k used throughout the analysis layer.

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


class TaylorJet:
    __slots__ = ("coeffs", "ctx")

    def __init__(self, coeffs, ctx: PrecisionContext):
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) < 1:
            raise ValueError("a jet needs at least the constant coefficient")
        self.ctx = ctx

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self) -> int:
        return len(self.coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(self.ctx.nstr(c, 8) for c in self.coeffs[:5])
        tail = ", ..." if len(self.coeffs) > 5 else ""
        return f"TaylorJet([{shown}{tail}], order={self.order})"

    # -- linear ops ----------------------------------------------------

    def _same_order(self, other):
        if not isinstance(other, TaylorJet):
            raise TypeError(f"a jet combines only with a jet, not {type(other).__name__}")
        if len(other) != len(self):
            raise ValueError("jet orders differ")
        return other

    def __add__(self, other):
        o = self._same_order(other)
        return TaylorJet([a + b for a, b in zip(self.coeffs, o.coeffs)], self.ctx)

    def __neg__(self):
        return TaylorJet([-a for a in self.coeffs], self.ctx)

    def __sub__(self, other):
        return self + (-self._same_order(other))

    # -- products and quotients -----------------------------------------

    def __mul__(self, other):
        o = self._same_order(other)
        zero = self.ctx.mpf(0)
        out = []
        for k in range(len(self.coeffs)):
            acc = zero
            for j in range(k + 1):
                acc += self.coeffs[j] * o.coeffs[k - j]
            out.append(acc)
        return TaylorJet(out, self.ctx)

    def __truediv__(self, other):
        o = self._same_order(other)
        if o.coeffs[0] == 0:
            raise DomainError("jet division by a series with zero constant term")
        out = []
        for k in range(len(self.coeffs)):
            acc = self.coeffs[k]
            for j in range(k):
                acc -= out[j] * o.coeffs[k - j]
            out.append(acc / o.coeffs[0])
        return TaylorJet(out, self.ctx)

    def __pow__(self, n):
        if not isinstance(n, int) or isinstance(n, bool):
            raise DomainError("jet exponent must be a literal integer")
        if n < 0:
            return constant_jet(1, self.order, self.ctx) / self.__pow__(-n)
        result = constant_jet(1, self.order, self.ctx)
        base = self
        e = n
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result


def constant_jet(value, order: int, ctx: PrecisionContext) -> TaylorJet:
    zero = ctx.mpf(0)
    return TaylorJet([ctx.mpf(value)] + [zero] * order, ctx)


def seed_jet(point, order: int, ctx: PrecisionContext) -> TaylorJet:
    """The identity series at ``point``: [p, 1, 0, ..., 0]."""
    zero = ctx.mpf(0)
    coeffs = [ctx.mpf(point), ctx.mpf(1)] + [zero] * (order - 1)
    return TaylorJet(coeffs[: order + 1], ctx)


# -- elementary functions on jets ---------------------------------------
#
# Writing u for the input and v for the result, each recurrence below comes
# from a first-order ODE satisfied by the pair, matched coefficientwise.
# exp, sin and cos solve v' = u' g, with g = v, cos u and -sin u; ln and
# arctan solve v' = u' / w, with w = u and 1 + u^2.


def _du_times(u: TaylorJet, g, k: int):
    """The sum of j u_j g_(k-j) over j = 1..k, which v' = u' g sets to k v_k."""
    acc = u.ctx.mpf(0)
    for j in range(1, k + 1):
        acc += j * u.coeffs[j] * g[k - j]
    return acc


def _du_over(u: TaylorJet, w, v0) -> TaylorJet:
    """The v with v_0 = v0 and v' = u' / w, matching w v' = u' coefficientwise."""
    v = [v0]
    for k in range(1, len(u)):
        acc = k * u.coeffs[k]
        for j in range(1, k):
            acc -= j * v[j] * w[k - j]
        v.append(acc / (k * w[0]))
    return TaylorJet(v, u.ctx)


def jet_exp(u: TaylorJet) -> TaylorJet:
    v = [u.ctx.mp.make_mpf(u.ctx.exp(u.coeffs[0]._mpf_))]
    for k in range(1, len(u)):
        v.append(_du_times(u, v, k) / k)
    return TaylorJet(v, u.ctx)


def jet_ln(u: TaylorJet) -> TaylorJet:
    return _du_over(u, u.coeffs, u.ctx.mp.make_mpf(u.ctx.ln(u.coeffs[0]._mpf_)))


def jet_sin_cos(u: TaylorJet):
    ctx = u.ctx
    c0, s0 = ctx.cos_sin(u.coeffs[0]._mpf_)
    s, c = [ctx.mp.make_mpf(s0)], [ctx.mp.make_mpf(c0)]
    for k in range(1, len(u)):
        s.append(_du_times(u, c, k) / k)
        c.append(-_du_times(u, s, k) / k)
    return TaylorJet(s, ctx), TaylorJet(c, ctx)


def jet_sin(u: TaylorJet) -> TaylorJet:
    return jet_sin_cos(u)[0]


def jet_cos(u: TaylorJet) -> TaylorJet:
    return jet_sin_cos(u)[1]


def jet_atan(u: TaylorJet) -> TaylorJet:
    ctx = u.ctx
    w = constant_jet(1, u.order, ctx) + u * u  # 1 + u^2
    return _du_over(u, w.coeffs, ctx.mp.make_mpf(ctx.atan(u.coeffs[0]._mpf_)))


def jet_sqrt(u: TaylorJet) -> TaylorJet:
    ctx = u.ctx
    if u.coeffs[0] <= 0:
        raise DomainError("sqrt of a series with non-positive constant term")
    v = [ctx.mp.make_mpf(ctx.sqrt(u.coeffs[0]._mpf_))]
    for k in range(1, len(u)):
        acc = u.coeffs[k]
        for j in range(1, k):
            acc -= v[j] * v[k - j]
        v.append(acc / (2 * v[0]))
    return TaylorJet(v, ctx)


def jet_abs(u: TaylorJet) -> TaylorJet:
    if u.coeffs[0] > 0:
        return u
    if u.coeffs[0] < 0:
        return -u
    raise DomainError("abs of a series with zero constant term is not differentiable")
