"""Scalar test functions: the seven built-ins plus user expressions.

A :class:`ScalarFunction` bundles the AST with its metadata (a 6-decimal
reference-root seed and the default initial guess used by the benchmark).
It evaluates either to a high-precision scalar (``f(x, ctx)``) or to a
Taylor jet (``f.eval_jet(p, order, ctx)``).

The AST is compiled once per precision context: for the scalar path and
for each jet order. The compiled code is stored on the context, so it
lives exactly as long as the context does.
"""

from __future__ import annotations

from . import expr, jets
from .precision import PrecisionContext


class ScalarFunction:
    def __init__(
        self,
        name: str,
        source: str,
        reference_root: str | None = None,
        default_x0: str | None = None,
    ):
        self.name = name
        self.source = source
        self.ast = expr.parse(source)
        self.reference_root = reference_root
        self.default_x0 = default_x0

    def _compiled_for(self, ctx: PrecisionContext, order):
        key = (self, order)  # order is None for the scalar path
        run = ctx.compiled.get(key)
        if run is None:
            ops = expr.HPOps(ctx) if order is None else expr.JetOps(ctx, order)
            run = ctx.compiled[key] = expr.compile_ast(self.ast, ops)
        return run

    def __call__(self, x, ctx: PrecisionContext):
        return self._compiled_for(ctx, None)(x)

    def eval_jet(self, p, order: int, ctx: PrecisionContext) -> jets.TaylorJet:
        """Expand f around ``p``: coefficient k of the result is f^(k)(p)/k!.

        ``order`` must be at least 1.
        """
        if order < 1:
            raise ValueError("jet order must be >= 1")
        return self._compiled_for(ctx, order)(p)

    def __repr__(self) -> str:
        return f"ScalarFunction({self.name}: {self.source})"


class CountingFunction:
    """Wraps a function and counts scalar and jet evaluations apart.

    ``calls`` models the f-calls of the iteration formulas; ``jet_calls``
    counts the Taylor-jet evaluations a slope such as kou's f'(x) costs,
    which are a separate derivative estimate and not f-calls.
    """

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.jet_calls = 0

    def __call__(self, x, ctx):
        self.calls += 1
        return self.fn(x, ctx)

    def eval_jet(self, p, order: int, ctx):
        self.jet_calls += 1
        return self.fn.eval_jet(p, order, ctx)


# Built-in test functions with their 6-decimal roots and the initial
# guesses the benchmark tables use.
_BUILTIN_SPECS = [
    ("f1", "sin(x)^2 - x^2 + 1", "1.404492", "1"),
    ("f2", "x^2 - exp(x) - 3*x + 2", "0.257530", "0.7"),
    ("f3", "cos(x) - x", "0.739085", "1"),
    ("f4", "cos(x) - x*exp(x) + x^2", "0.639154", "1"),
    ("f5", "exp(x) - 1.5 - arctan(x)", "0.767653", "1"),
    ("f6", "8*x - cos(x) - 2*x^2", "0.128077", "1"),
    ("f7", "ln(x^2 + x + 2) - x + 1", "4.152590", "3.6"),
]

BUILTINS: dict[str, ScalarFunction] = {
    name: ScalarFunction(name, source, root, x0)
    for name, source, root, x0 in _BUILTIN_SPECS
}

FUNCTION_NAMES = tuple(BUILTINS)


def get_function(name: str) -> ScalarFunction:
    try:
        return BUILTINS[name]
    except KeyError:
        known = ", ".join(FUNCTION_NAMES)
        raise KeyError(f"unknown function {name!r} (known: {known})") from None


def from_expression(text: str) -> ScalarFunction:
    """Build a ScalarFunction from expression text (raises ParseError)."""
    return ScalarFunction("<expr>", text)
