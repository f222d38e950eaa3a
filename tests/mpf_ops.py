"""The tests' oracle for the scalar path: evaluation on mpf values.

This is the adapter the compiled scalar path used before it worked on raw
libmp values: x and each literal converted by ``ctx.mpf``, arithmetic by
the mpf operators, the elementary functions through mpmath's function
wrappers, and the domain checks written as comparisons on mpf values.
"""

import operator

from stefbench import DomainError, PrecisionContext


class MpfOps:
    neg, add, sub = operator.neg, operator.add, operator.sub
    mul, div, pow = operator.mul, operator.truediv, operator.pow

    def __init__(self, ctx: PrecisionContext):
        self.ctx = ctx
        self.mp = ctx.mp
        self.var = ctx.mpf

    @staticmethod
    def wrap(x):
        return x

    def const(self, text: str):
        return self.ctx.mpf(text)

    def _bounded(self, name: str, x):
        # mag(x) > bits exactly when |x| >= 2^bits (infinities included).
        if self.mp.mag(x) > self.ctx.bits:
            raise DomainError(
                f"{name} of {self.ctx.nstr(x)}: |argument| >= 2^{self.ctx.bits} "
                "has no fractional bits at working precision"
            )
        return x

    def sin(self, x):
        return self.mp.sin(self._bounded("sin", x))

    def cos(self, x):
        return self.mp.cos(self._bounded("cos", x))

    def exp(self, x):
        return self.mp.exp(self._bounded("exp", x))

    def ln(self, x):
        if x <= 0:
            raise DomainError(f"ln of non-positive value {self.ctx.nstr(x)}")
        return self.mp.ln(x)

    def sqrt(self, x):
        if x < 0:
            raise DomainError(f"sqrt of negative value {self.ctx.nstr(x)}")
        return self.mp.sqrt(x)

    def arctan(self, x):
        return self.mp.atan(x)

    def abs(self, x):
        return self.mp.fabs(x)
