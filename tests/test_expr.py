"""Expression grammar: parsing, error positions, unparse round-trips,
agreement between the scalar and jet evaluation paths, and the compiled
evaluator against a tree-walking oracle."""

import gc
import weakref
from collections import Counter

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from stefbench import (
    BUILTINS,
    DomainError,
    ParseError,
    PrecisionContext,
    from_expression,
    get_function,
)
from stefbench.expr import (
    MAX_DEPTH,
    Binary,
    Const,
    Pow,
    Unary,
    Var,
    parse,
    unparse,
)
from stefbench.jets import JetOps
from mpf_ops import MpfOps


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_sources_round_trip(name):
    ast = parse(BUILTINS[name].source)
    assert parse(unparse(ast)) == ast


def test_unknown_builtin_names_the_known_ones():
    with pytest.raises(KeyError, match=r"unknown function 'f9' \(known: f1, f2, .*, f7\)"):
        get_function("f9")


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
        # Python converts at most 4300 decimal digits to an int by default.
        pytest.param("x^" + "9" * 5000, 2, "digits is too long", id="long-exponent"),
        pytest.param("x^-" + "0" * 5000 + "2", 3, "digits is too long", id="long-negative-exponent"),
        # The same limit on a literal's exponent, at the literal.
        pytest.param("x - 1e" + "9" * 5000, 4, "digits is too long", id="long-literal-exponent"),
        pytest.param("2*1.5E-" + "9" * 5000, 2, "digits is too long", id="long-negative-literal-exponent"),
    ],
)
def test_parse_errors_carry_positions(text, position, fragment):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.position == position
    assert fragment in str(info.value)
    assert str(info.value).endswith(f"at position {position}")


# The four shapes too deep for the parser, each with the offset of the token
# that crosses MAX_DEPTH: the 100th '(', the 100th 'sin', the 100th '-' and
# the 100th '+', whose Binary node is the sum's 101st level.
TOO_DEEP = [
    pytest.param("(" * 200 + "x" + ")" * 200, 99, id="parentheses"),
    pytest.param("sin(" * 200 + "x" + ")" * 200, 396, id="calls"),
    pytest.param("-" * 1000 + "x", 99, id="unary-minus"),
    pytest.param("+".join(["x"] * 1000), 199, id="left-deep-sum"),
]


@pytest.mark.parametrize("text, position", TOO_DEEP)
def test_too_deep_expressions_are_parse_errors(text, position):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.position == position
    assert str(info.value) == f"expression nested deeper than {MAX_DEPTH} levels at position {position}"


@pytest.mark.parametrize(
    "text, value",
    [
        ("(" * 99 + "x" + ")" * 99, 3),
        ("-" * 99 + "x", -3),
        ("+".join(["x"] * 100), 300),
        ("x - (" * 49 + "x" + ")" * 49, 0),
        ("(" * 98 + "x" + ")" * 98 + "^2", 9),
    ],
    ids=["parentheses", "unary-minus", "left-deep-sum", "right-deep-difference", "power"],
)
def test_expressions_at_the_depth_limit_parse_compile_and_round_trip(ctx, text, value):
    f = from_expression(text)
    assert f(ctx.mpf(3), ctx) == value
    assert f.eval_jet(ctx.mpf(3), 2, ctx)[0] == value
    assert parse(unparse(f.ast)) == f.ast


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
    assert Var()  # a node without fields is still truthy
    assert unparse(ast) == "(x^2)^3"


def test_literals_convert_at_working_precision(ctx):
    assert from_expression("0.1")(ctx.mpf(0), ctx) == ctx.mpf("0.1")
    assert from_expression("1e-40")(ctx.mpf(0), ctx) == ctx.mpf("1e-40")


def test_scalar_evaluation_matches_context_functions(ctx):
    x = ctx.mpf("0.5")
    assert from_expression("sin(x)")(x, ctx) == ctx.mp.sin(x)
    assert from_expression("x^2 - 2")(ctx.mpf(3), ctx) == 7
    assert from_expression("abs(0 - x)")(ctx.mpf(2), ctx) == 2


# Every function of the grammar, sqrt and abs among them, which no built-in uses.
EVERY_FUNCTION = "sqrt(x + 3) + abs(x - 3)/exp(x) + arctan(x)*x - ln(x)*sin(x)*cos(-x)"


@pytest.mark.parametrize(
    "f, x0, bits",
    [pytest.param(BUILTINS[name], BUILTINS[name].default_x0, 512, id=name) for name in sorted(BUILTINS)]
    + [
        pytest.param(from_expression(EVERY_FUNCTION), "1.2", bits, id=f"every_function-{bits}")
        for bits in (64, 113, 512, 2048, 4096)
    ],
)
def test_scalar_and_jet_constant_terms_agree_bitwise(f, x0, bits):
    c = PrecisionContext(bits)
    x = c.mpf(x0)
    assert f(x, c)._mpf_ == f.eval_jet(x, 4, c)[0]._mpf_


def test_both_evaluators_call_the_contexts_elementary_functions(monkeypatch):
    # Wrapping these methods on the class, as the benchmark's tracer does,
    # sees every elementary call of both evaluators, if the wrappers are in
    # place before the context is built.
    calls = []
    for name in ("sin", "cos", "cos_sin", "exp", "ln", "atan", "sqrt"):

        def counting(self, v, name=name, method=getattr(PrecisionContext, name)):
            calls.append(name)
            return method(self, v)

        monkeypatch.setattr(PrecisionContext, name, counting)
    c = PrecisionContext(512)
    f, x = from_expression(EVERY_FUNCTION), c.mpf("1.2")
    f(x, c)
    assert Counter(calls) == {"sqrt": 1, "exp": 1, "atan": 1, "ln": 1, "sin": 1, "cos": 1}
    for order in (1, 4):
        calls.clear()
        f.eval_jet(x, order, c)
        # The sin and cos jets each take both values from one cos_sin.
        assert Counter(calls) == {"sqrt": 1, "exp": 1, "atan": 1, "ln": 1, "cos_sin": 2}


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
    walking the tree on every call: the reference for the compiled path.
    The result is not yet passed through ``ops.wrap``."""
    if isinstance(node, Const):
        return ops.const(node.text)
    if isinstance(node, Var):
        return x
    if isinstance(node, Unary):
        val = evaluate(node.arg, x, ops)
        if node.op == "neg":
            return ops.neg(val)
        try:
            return getattr(ops, node.op)(val)
        except DomainError as exc:
            raise DomainError(f"{exc} in {unparse(node)!r}") from None
    if isinstance(node, Pow):
        base = evaluate(node.base, x, ops)
        try:
            return ops.pow(base, node.exponent)
        except ZeroDivisionError:
            raise DomainError(
                f"zero raised to negative power in {unparse(node)!r}"
            ) from None
    if isinstance(node, Binary):
        left = evaluate(node.left, x, ops)
        right = evaluate(node.right, x, ops)
        if node.op == "+":
            return ops.add(left, right)
        if node.op == "-":
            return ops.sub(left, right)
        if node.op == "*":
            return ops.mul(left, right)
        try:
            return ops.div(left, right)
        except ZeroDivisionError:
            raise DomainError(f"division by zero in {unparse(node)!r}") from None
    raise TypeError(f"not an AST node: {node!r}")


class _Bounded:
    """``ops`` whose exp, sin and cos reject arguments from 2^32 to 2^bits.

    mpmath reduces such arguments at a precision that grows with their
    exponent, so nested exponentials such as exp(exp(exp(99))) would
    run for unbounded time. Larger arguments, infinities included, stay:
    both paths refuse them at once with a DomainError.
    """

    def __init__(self, ops):
        self.ops = ops
        self.mag = ops.ctx.mp.mag
        self.bits = ops.ctx.bits

    def __getattr__(self, name):
        fn = getattr(self.ops, name)
        if name not in ("exp", "sin", "cos"):
            return fn

        def bounded(v):
            if 32 < self.mag(v[0] if isinstance(v, (tuple, list)) else v) <= self.bits:
                reject()
            return fn(v)

        return bounded


def _outcome(run):
    """The bits of a value or jet, or the message of a DomainError."""
    try:
        value = run()
    except DomainError as exc:
        return ("DomainError", str(exc))
    if isinstance(value, tuple):
        return tuple(c._mpf_ for c in value)
    return value._mpf_


# x is given at a wider precision than any context, so the evaluators
# must round it to working precision themselves.
_WIDE = PrecisionContext(8192)
_CONTEXTS = {bits: PrecisionContext(bits) for bits in (64, 113, 512, 2048, 4096)}


@settings(max_examples=150, deadline=None)
# Both operands fail, so only the left-first order gives the oracle's message.
@example(ast=parse("ln(x) + sqrt(x)"), bits=64, x="-1.25")
@example(ast=parse("ln(x) - sqrt(x)"), bits=64, x="-1.25")
@example(ast=parse("ln(x)*sqrt(x)"), bits=64, x="-1.25")
@example(ast=parse("ln(x)/sqrt(x)"), bits=64, x="-1.25")
# The inner ln fails; the outer sqrt must pass its message on unchanged.
@example(ast=parse("sqrt(ln(x))"), bits=64, x="-1.25")
# The infinities and NaN pin the raw sign and NaN checks of ln and sqrt,
# and the magnitude check of exp, sin and cos, against the mpf comparisons.
@example(ast=parse("ln(x)"), bits=64, x="-inf")
@example(ast=parse("sqrt(x)"), bits=64, x="-inf")
@example(ast=parse("ln(x) + sqrt(x) + exp(x)"), bits=113, x="nan")
@example(ast=parse("ln(x) + sqrt(x) - exp(-x)"), bits=113, x="inf")
@example(ast=parse("sin(x)"), bits=4096, x="-inf")
@given(
    ast=_ast_strategy(),
    bits=st.sampled_from([64, 113, 512, 2048, 4096]),
    x=st.sampled_from(["0", "0.5", "-1.25", "3", "0.1", "inf", "-inf", "nan"]),
)
def test_compiled_evaluation_equals_the_tree_walk_bit_for_bit(ast, bits, x):
    ctx = _CONTEXTS[bits]
    f = from_expression(unparse(ast))
    assert f.ast == ast
    x = _WIDE.mpf(x)
    for ops, run in [
        (MpfOps(ctx), lambda: f(x, ctx)),
        (JetOps(ctx, 1), lambda: f.eval_jet(x, 1, ctx)),
        (JetOps(ctx, 4), lambda: f.eval_jet(x, 4, ctx)),
    ]:
        bounded = _Bounded(ops)
        expected = _outcome(lambda: bounded.wrap(evaluate(ast, bounded.var(x), bounded)))
        assert _outcome(run) == expected


def test_scalar_evaluation_takes_text_numbers_and_other_precisions():
    ctx = PrecisionContext(64)
    f = from_expression("x*x - 2")
    third = PrecisionContext(1024).mpf(1) / 3
    for x in ("1.1", 3, 0.1, third):
        value = f(x, ctx)
        assert type(value) is ctx.mp.mpf
        expected = ctx.mpf(x) * ctx.mpf(x) - 2
        assert value._mpf_ == expected._mpf_


def test_x_is_rounded_to_working_precision():
    low = PrecisionContext(64)
    third = PrecisionContext(1024).mpf(1) / 3
    f = from_expression("x")
    assert f(third, low)._mpf_ == low.mpf(third)._mpf_
    assert f.eval_jet(third, 1, low)[0]._mpf_ == low.mpf(third)._mpf_


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
