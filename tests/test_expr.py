"""Expression grammar: parsing, error positions, unparse round-trips,
agreement between the scalar and jet evaluation paths, and the compiled
evaluator against a tree-walking oracle."""

import gc
import weakref

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from stefbench import BUILTINS, DomainError, ParseError, PrecisionContext, from_expression
from stefbench.expr import Binary, Const, HPOps, JetOps, Pow, Unary, Var, parse, unparse


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_sources_round_trip(name):
    ast = parse(BUILTINS[name].source)
    assert parse(unparse(ast)) == ast


@pytest.mark.parametrize(
    "text, position, fragment",
    [
        ("2 +", 3, "end of input"),
        ("", 0, "empty expression"),
        ("   ", 0, "empty expression"),
        ("sin x", 4, "expected '('"),
        ("x ^ 2.5", 4, "non-integer exponent"),
        ("y + 1", 0, "unknown identifier"),
        ("x $ 2", 2, "unexpected character"),
        ("(x + 1", 6, "expected ')'"),
        ("2 ^ x", 4, "literal integer"),
        ("x ** 2", 3, "expected operand"),
        ("x^2^3", 3, "unexpected"),
    ],
)
def test_parse_errors_carry_positions(text, position, fragment):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.position == position
    assert fragment in str(info.value)
    assert str(info.value).endswith(f"at position {position}")


def test_precedence(ctx):
    def ev(text, x):
        return from_expression(text)(ctx.mpf(x), ctx)

    assert ev("1 - 2 - 3", 0) == -4
    assert ev("2 + 3 * 4", 0) == 14
    assert ev("-x^2", 3) == -9
    assert ev("(-x)^2", 3) == 9
    assert ev("2*x^-1", 4) == ctx.mpf(1) / 2
    assert ev("x/2/3", 12) == 2
    assert ev("x^-2", 2) == ctx.mpf(1) / 4


def test_nested_power_needs_parens_and_keeps_them():
    ast = parse("(x^2)^3")
    assert ast == Pow(Pow(Var(), 2), 3)
    assert unparse(ast) == "(x^2)^3"


def test_literals_convert_at_working_precision(ctx):
    assert from_expression("0.1")(ctx.mpf(0), ctx) == ctx.mpf("0.1")
    assert from_expression("1e-40")(ctx.mpf(0), ctx) == ctx.mpf("1e-40")


def test_scalar_evaluation_matches_context_functions(ctx):
    x = ctx.mpf("0.5")
    assert from_expression("sin(x)")(x, ctx) == ctx.sin(x)
    assert from_expression("x^2 - 2")(ctx.mpf(3), ctx) == 7
    assert from_expression("abs(0 - x)")(ctx.mpf(2), ctx) == 2


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_scalar_and_jet_constant_terms_agree_bitwise(ctx, name):
    f = BUILTINS[name]
    x0 = ctx.mpf(f.default_x0)
    assert f(x0, ctx) == f.eval_jet(x0, 4, ctx).coeffs[0]


@pytest.mark.parametrize(
    "text, x, fragment",
    [
        ("ln(0 - x)", "1", "in 'ln(0 - x)'"),
        ("1/(x - 1)", "1", "division by zero"),
        ("x^-1", "0", "zero raised to negative power"),
        ("sqrt(0 - x)", "4", "sqrt of negative"),
    ],
)
def test_domain_errors_name_the_subexpression(ctx, text, x, fragment):
    f = from_expression(text)
    with pytest.raises(DomainError) as info:
        f(ctx.mpf(x), ctx)
    assert fragment in str(info.value)


def test_unparse_spacing_conventions():
    assert unparse(parse("x^2-2")) == "x^2 - 2"
    assert unparse(parse("-(x+1)*x")) == "-(x + 1)*x"
    assert unparse(parse("x/(x+1)")) == "x/(x + 1)"
    assert unparse(parse("8*x - cos(x) - 2*x^2")) == "8*x - cos(x) - 2*x^2"


def _ast_strategy():
    leaves = st.one_of(
        st.just(Var()),
        st.integers(0, 99).map(lambda n: Const(str(n))),
        st.just(Const("1.5")),
        st.just(Const("0.25")),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: Binary(t[0], t[1], t[2])
            ),
            st.tuples(
                st.sampled_from(["neg", "sin", "cos", "exp", "ln", "arctan", "sqrt", "abs"]),
                children,
            ).map(lambda t: Unary(t[0], t[1])),
            st.tuples(children, st.integers(-4, 4)).map(lambda t: Pow(t[0], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=120, deadline=None)
@given(ast=_ast_strategy())
def test_unparse_parse_round_trip_property(ast):
    assert parse(unparse(ast)) == ast


# -- compiled evaluation against a tree walk -----------------------------------


def evaluate(node, x, ops):
    """Evaluate ``node`` at ``x`` (already adapted via ``ops.var``) by
    walking the tree on every call: the reference for the compiled path."""
    if isinstance(node, Const):
        return ops.const(node.text)
    if isinstance(node, Var):
        return x
    if isinstance(node, Unary):
        val = evaluate(node.arg, x, ops)
        if node.op == "neg":
            return -val
        try:
            return getattr(ops, node.op)(val)
        except DomainError as exc:
            raise DomainError(f"{exc} in {unparse(node)!r}") from None
    if isinstance(node, Pow):
        base = evaluate(node.base, x, ops)
        try:
            return base ** node.exponent
        except ZeroDivisionError:
            raise DomainError(
                f"zero raised to negative power in {unparse(node)!r}"
            ) from None
    if isinstance(node, Binary):
        left = evaluate(node.left, x, ops)
        right = evaluate(node.right, x, ops)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        try:
            return left / right
        except ZeroDivisionError:
            raise DomainError(f"division by zero in {unparse(node)!r}") from None
    raise TypeError(f"not an AST node: {node!r}")


class _Bounded:
    """``ops`` whose exp, sin and cos reject arguments beyond 2^32.

    mpmath reduces such arguments at a precision that grows with their
    exponent, so nested exponentials such as exp(exp(exp(99))) would
    run for unbounded time.
    """

    def __init__(self, ops):
        self.ops = ops
        self.mag = ops.ctx.mp.mag

    def __getattr__(self, name):
        fn = getattr(self.ops, name)
        if name not in ("exp", "sin", "cos"):
            return fn

        def bounded(v):
            if self.mag(v if isinstance(self.ops, HPOps) else v.coeffs[0]) > 32:
                reject()
            return fn(v)

        return bounded


def _outcome(run):
    """The bits of a value or jet, or the message of a DomainError."""
    try:
        value = run()
    except DomainError as exc:
        return ("DomainError", str(exc))
    if hasattr(value, "coeffs"):
        return tuple(c._mpf_ for c in value.coeffs)
    return value._mpf_


# x is given at a wider precision than either context, so the evaluators
# must round it to working precision themselves.
_WIDE = PrecisionContext(1024)


@settings(max_examples=150, deadline=None)
# Both operands fail, so only the left-first order gives the oracle's message.
@example(ast=parse("ln(x) + sqrt(x)"), bits=64, x="-1.25")
@example(ast=parse("ln(x) - sqrt(x)"), bits=64, x="-1.25")
@example(ast=parse("ln(x)*sqrt(x)"), bits=64, x="-1.25")
@example(ast=parse("ln(x)/sqrt(x)"), bits=64, x="-1.25")
# The inner ln fails; the outer sqrt must pass its message on unchanged.
@example(ast=parse("sqrt(ln(x))"), bits=64, x="-1.25")
@given(
    ast=_ast_strategy(),
    bits=st.sampled_from([64, 512]),
    x=st.sampled_from(["0", "0.5", "-1.25", "3", "0.1"]),
)
def test_compiled_evaluation_equals_the_tree_walk_bit_for_bit(ast, bits, x):
    ctx = PrecisionContext(bits)
    f = from_expression(unparse(ast))
    assert f.ast == ast
    x = _WIDE.mpf(x)
    for ops, run in [
        (HPOps(ctx), lambda: f(x, ctx)),
        (JetOps(ctx, 1), lambda: f.eval_jet(x, 1, ctx)),
        (JetOps(ctx, 4), lambda: f.eval_jet(x, 4, ctx)),
    ]:
        bounded = _Bounded(ops)
        expected = _outcome(lambda: evaluate(ast, bounded.var(x), bounded))
        assert _outcome(run) == expected


def test_x_is_rounded_to_working_precision():
    low = PrecisionContext(64)
    third = PrecisionContext(1024).mpf(1) / 3
    f = from_expression("x")
    assert f(third, low)._mpf_ == low.mpf(third)._mpf_
    assert f.eval_jet(third, 1, low).coeffs[0]._mpf_ == low.mpf(third)._mpf_


def test_each_context_converts_literals_at_its_own_precision():
    f = from_expression("0.1 + x")
    low, high = PrecisionContext(64), PrecisionContext(512)
    for ctx in (low, high, low, PrecisionContext(64)):
        assert f(ctx.mpf(0), ctx)._mpf_ == ctx.mpf("0.1")._mpf_


def test_compiled_code_does_not_keep_an_old_context_alive():
    f = from_expression(BUILTINS["f1"].source)
    # Both at one precision that no other test uses, so code cached by
    # precision would be ctx1's and keep it alive.
    ctx1, ctx2 = PrecisionContext(136), PrecisionContext(136)
    for ctx in (ctx1, ctx2):
        x = ctx.mpf(1)
        f(x, ctx)
        f.eval_jet(x, 4, ctx)
    ref = weakref.ref(ctx1)
    del ctx1
    gc.collect()
    assert ref() is None
