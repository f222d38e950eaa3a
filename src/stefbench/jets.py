"""Truncated Taylor-series (jet) arithmetic.

A :class:`TaylorJet` stores coefficients a_0..a_K of a(t) = sum a_k t^k.
Seeding a jet at a point p with coefficients [p, 1, 0, ..., 0] and pushing
it through a function f yields coefficients f^(k)(p)/k!, i.e. the
normalized Taylor coefficients c_k used throughout the analysis layer.

All operations are exact truncated-series operations: coefficient k of a
result depends only on coefficients 0..k of the inputs. The elementary
functions use the standard convolution recurrences driven by u' (for
g = exp(u): g' = u' g, and so on), so no symbolic differentiation is ever
needed.
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

    def __getitem__(self, k):
        return self.coeffs[k]

    def __repr__(self) -> str:
        shown = ", ".join(self.ctx.nstr(c, 8) for c in self.coeffs[:5])
        tail = ", ..." if len(self.coeffs) > 5 else ""
        return f"TaylorJet([{shown}{tail}], order={self.order})"

    # -- linear ops ----------------------------------------------------

    def _wrap(self, other):
        if isinstance(other, TaylorJet):
            if len(other) != len(self):
                raise ValueError("jet orders differ")
            return other
        return constant_jet(other, self.order, self.ctx)

    def __add__(self, other):
        o = self._wrap(other)
        return TaylorJet([a + b for a, b in zip(self.coeffs, o.coeffs)], self.ctx)

    __radd__ = __add__

    def __neg__(self):
        return TaylorJet([-a for a in self.coeffs], self.ctx)

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) + (-self)

    # -- products and quotients -----------------------------------------

    def __mul__(self, other):
        o = self._wrap(other)
        zero = self.ctx.mpf(0)
        out = []
        for k in range(len(self.coeffs)):
            acc = zero
            for j in range(k + 1):
                acc += self.coeffs[j] * o.coeffs[k - j]
            out.append(acc)
        return TaylorJet(out, self.ctx)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._wrap(other)
        if o.coeffs[0] == 0:
            raise DomainError("jet division by a series with zero constant term")
        out = []
        for k in range(len(self.coeffs)):
            acc = self.coeffs[k]
            for j in range(k):
                acc -= out[j] * o.coeffs[k - j]
            out.append(acc / o.coeffs[0])
        return TaylorJet(out, self.ctx)

    def __rtruediv__(self, other):
        return self._wrap(other) / self

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


def jet_exp(u: TaylorJet) -> TaylorJet:
    ctx = u.ctx
    v = [ctx.exp(u.coeffs[0])]
    for k in range(1, len(u)):
        acc = ctx.mpf(0)
        for j in range(1, k + 1):
            acc += j * u.coeffs[j] * v[k - j]
        v.append(acc / k)
    return TaylorJet(v, ctx)


def jet_ln(u: TaylorJet) -> TaylorJet:
    ctx = u.ctx
    if u.coeffs[0] <= 0:
        raise DomainError("ln of a series with non-positive constant term")
    v = [ctx.ln(u.coeffs[0])]
    for k in range(1, len(u)):
        acc = k * u.coeffs[k]
        for j in range(1, k):
            acc -= j * v[j] * u.coeffs[k - j]
        v.append(acc / (k * u.coeffs[0]))
    return TaylorJet(v, ctx)


def jet_sin_cos(u: TaylorJet):
    ctx = u.ctx
    s = [ctx.sin(u.coeffs[0])]
    c = [ctx.cos(u.coeffs[0])]
    for k in range(1, len(u)):
        sa = ctx.mpf(0)
        ca = ctx.mpf(0)
        for j in range(1, k + 1):
            sa += j * u.coeffs[j] * c[k - j]
            ca += j * u.coeffs[j] * s[k - j]
        s.append(sa / k)
        c.append(-ca / k)
    return TaylorJet(s, ctx), TaylorJet(c, ctx)


def jet_sin(u: TaylorJet) -> TaylorJet:
    return jet_sin_cos(u)[0]


def jet_cos(u: TaylorJet) -> TaylorJet:
    return jet_sin_cos(u)[1]


def jet_atan(u: TaylorJet) -> TaylorJet:
    ctx = u.ctx
    w = constant_jet(1, u.order, ctx) + u * u  # 1 + u^2
    v = [ctx.atan(u.coeffs[0])]
    for k in range(1, len(u)):
        acc = k * u.coeffs[k]
        for j in range(1, k):
            acc -= j * v[j] * w.coeffs[k - j]
        v.append(acc / (k * w.coeffs[0]))
    return TaylorJet(v, ctx)


def jet_sqrt(u: TaylorJet) -> TaylorJet:
    ctx = u.ctx
    if u.coeffs[0] <= 0:
        raise DomainError("sqrt of a series with non-positive constant term")
    v = [ctx.sqrt(u.coeffs[0])]
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


def jet_eval(f, p, order: int, ctx: PrecisionContext) -> TaylorJet:
    """Expand ``f`` around ``p``: coefficient k of the result is f^(k)(p)/k!.

    ``f`` must support jet evaluation (any ScalarFunction does); ``order``
    must be at least 1.
    """
    if order < 1:
        raise ValueError("jet order must be >= 1")
    return f.eval_jet(p, order, ctx)
