"""Expression parsing and compilation to generic evaluators.

The grammar (documented in the README as EBNF) is deliberately small:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ['^' integer]
    atom   := NUMBER | 'x' | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := sin | cos | exp | ln | arctan | sqrt | abs

Precedence is ^ above unary minus above '*'/'/' above '+'/'-', binary
operators associate left. Exponents are restricted to integer literals so
series composition stays exact. Error positions are byte offsets from the
start of the source text.

An expression nests at most MAX_DEPTH levels deep. A literal or x is one
level, and each binary operator, power, unary minus, function call and
parenthesised group adds one above its operands, so a left-deep sum
counts as deep as it is long. Compiling, evaluating and unparsing recurse
once per level; the limit makes a deeper input a ParseError, never a
RecursionError.

An AST compiles, once per "ops" adapter, into nested closures that
evaluate it. The adapter supplies the arithmetic and the elementary
functions: :class:`HPOps` evaluates to a high-precision scalar, working on
raw libmp values between one conversion of x in and one mpf out, and
:class:`stefbench.jets.JetOps` to a Taylor jet, working on coefficient
tuples between one seed series of x in and the result's tuple out. Both
take their elementary functions from the precision context. Compiling converts
each decimal literal once, at working precision directly from its text and
never through a machine float; each call then runs the same operations in
the same order as a walk over the tree would, so the result and any
:class:`DomainError` message do not depend on how often it is compiled.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from mpmath.libmp import (
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_pow_int,
    mpf_sub,
)

from .errors import DomainError, ParseError
from .precision import NUMBER, PrecisionContext, read_exponent, shown, split_decimal

# The grammar's elementary functions.
ELEMENTARY = ("sin", "cos", "exp", "ln", "arctan", "sqrt", "abs")


# -- AST -----------------------------------------------------------------


# Immutable named tuples. Node types differ in arity or in their fields'
# types, so tuple equality never equates two different nodes.


class Const(NamedTuple):
    text: str


class Var(NamedTuple):
    """The variable x."""


class Unary(NamedTuple):
    op: str  # 'neg' or one of ELEMENTARY
    arg: object


class Binary(NamedTuple):
    op: str  # '+', '-', '*', '/'
    left: object
    right: object


class Pow(NamedTuple):
    base: object
    exponent: int


# -- tokenizer -------------------------------------------------------------

_TOKEN_RE = re.compile(
    rf"""
    (?P<num>{NUMBER})
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[()+\-*/^])
  | (?P<ws>\s+)
""",
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


# -- parser ----------------------------------------------------------------

# Binding strength, shared by the parser and unparse: the binary operators
# by symbol, unary minus, power, and everything that binds as an atom.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}

# The deepest expression parse accepts, in levels (see the module docstring).
MAX_DEPTH = 100


class _Parser:
    """Recursive descent over the token list.

    Each grammar method returns a node and its height in levels. ``open``
    counts the levels open above the token being read, so a node of height
    h sits at least ``open + h`` levels deep in the finished tree.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.open = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, pos = self.peek()
        if kind == "op" and value == symbol:
            return self.advance()
        raise ParseError(f"expected '{symbol}'", pos)

    def check(self, height: int, pos: int) -> int:
        """``height``, or ParseError at ``pos`` if it takes the tree past MAX_DEPTH."""
        if self.open + height > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
        return height

    def nested(self, pos: int, parse_inner):
        """``parse_inner()``'s node, one level down, opened by the token at ``pos``.

        The level is checked before the descent, so nesting never recurses
        past MAX_DEPTH.
        """
        self.open += 1
        self.check(1, pos)
        node, height = parse_inner()
        self.open -= 1
        return node, height + 1

    def parse(self):
        node, _ = self.binary()
        kind, value, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected {shown(value)}", pos)
        return node

    def binary(self, level: int = 1):
        """Operands joined left to right by the binary operators of ``level``.

        Each operand parses one level up, so a higher level binds tighter;
        the climb ends at the level of unary minus.
        """
        if level == _PREC["neg"]:
            return self.unary()
        node, height = self.binary(level + 1)
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and _PREC.get(value) == level:
                self.advance()
                right, right_height = self.binary(level + 1)
                node = Binary(value, node, right)
                height = self.check(max(height, right_height) + 1, pos)
            else:
                return node, height

    def unary(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            arg, height = self.nested(pos, self.unary)
            return Unary("neg", arg), height
        return self.power()

    def power(self):
        node, height = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            node = Pow(node, self.integer_exponent())
            height = self.check(height + 1, pos)
        return node, height

    def integer_exponent(self) -> int:
        sign = 1
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = -1
            kind, value, pos = self.peek()
        if kind != "num":
            raise ParseError("exponent must be a literal integer", pos)
        if "." in value or "e" in value or "E" in value:
            raise ParseError(f"non-integer exponent {shown(value)}", pos)
        self.advance()
        return sign * self.read(read_exponent, value, pos)

    def read(self, reader, text: str, pos: int):
        """``reader(text)``, whose ValueError is a ParseError at ``pos``."""
        try:
            return reader(text)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "num":
            # A literal that mpf refuses fails here, at its position.
            self.read(split_decimal, value, pos)
            return Const(value), 1
        if kind == "ident":
            if value == "x":
                return Var(), 1
            if value in ELEMENTARY:
                self.expect_op("(")
                arg, height = self.nested(pos, self.binary)
                self.expect_op(")")
                return Unary(value, arg), height
            raise ParseError(f"unknown identifier {shown(value)}", pos)
        if kind == "op" and value == "(":
            node, height = self.nested(pos, self.binary)
            self.expect_op(")")
            return node, height
        found = value if value else "end of input"
        raise ParseError(f"expected operand, found {found!r}", pos)


def parse(text: str):
    """Parse expression text into an AST; raises :class:`ParseError`."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text).parse()


# -- unparse ----------------------------------------------------------------


def _prec(node) -> int:
    if isinstance(node, Binary):
        return _PREC[node.op]
    if isinstance(node, Unary):
        return _PREC["neg"] if node.op == "neg" else _PREC["atom"]
    if isinstance(node, Pow):
        return _PREC["pow"]
    return _PREC["atom"]


def unparse(node) -> str:
    """Render an AST back to source; reparsing yields an identical tree."""
    if isinstance(node, Const):
        return node.text
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = unparse(node.arg)
            if _prec(node.arg) < _PREC["neg"]:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({unparse(node.arg)})"
    if isinstance(node, Pow):
        base = unparse(node.base)
        # '<=' and not '<': power does not chain in the grammar, so a Pow
        # base (reachable only via explicit parentheses) must keep them.
        if _prec(node.base) <= _PREC["pow"]:
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Binary):
        me = _PREC[node.op]
        left = unparse(node.left)
        if _prec(node.left) < me:
            left = f"({left})"
        right = unparse(node.right)
        if _prec(node.right) <= me:
            right = f"({right})"
        joiner = f" {node.op} " if node.op in "+-" else node.op
        return f"{left}{joiner}{right}"
    raise TypeError(f"not an AST node: {node!r}")


# -- compilation -------------------------------------------------------------


class HPOps:
    """Scalar evaluation adapter over raw mpmath values.

    Values between entry and exit are libmp ``_mpf_`` tuples. x is rounded
    to working precision once on entry (``var``), the result becomes an
    mpf of the context once on exit (``wrap``), and each arithmetic
    operation between is the libmp call that the mpf operator makes, at
    the same precision and rounding. The elementary functions are the
    context's own, bound when the adapter is built: each is the context's
    domain check and then mpmath's libmp call, and the jets call the same
    methods. So every value and DomainError message is bit for bit the one
    that mpf arithmetic and mpmath's functions give.
    """

    def __init__(self, ctx: PrecisionContext):
        self.ctx = ctx
        mpf = ctx.mpf
        prec, rnd = ctx._prec, ctx._rnd  # what the mpf operators read

        def var(x):
            try:
                v = x._mpf_
            except AttributeError:  # text, int or float
                return mpf(x)._mpf_
            return mpf_pos(v, prec, rnd)

        def unary(fn):
            return lambda v: fn(v, prec, rnd)

        def binary(fn):
            return lambda a, b: fn(a, b, prec, rnd)

        self.var, self.wrap = var, ctx.mp.make_mpf
        self.add, self.sub, self.mul = binary(mpf_add), binary(mpf_sub), binary(mpf_mul)
        self.div, self.pow = binary(mpf_div), binary(mpf_pow_int)
        self.neg, self.abs = unary(mpf_neg), unary(mpf_abs)
        self.sin, self.cos, self.exp = ctx.sin, ctx.cos, ctx.exp
        self.ln, self.arctan, self.sqrt = ctx.ln, ctx.atan, ctx.sqrt

    def const(self, text: str):
        return self.ctx.mpf(text)._mpf_


def compile_ast(node, ops):
    """Compile ``node`` into a function of x that evaluates it through ``ops``.

    The function adapts x via ``ops.var`` and its result via ``ops.wrap``
    on every call; literals are converted once, here. Operands are
    evaluated left before right, so results and DomainError messages are
    those of a walk over the tree.
    """
    body, var, wrap = _compile(node, ops), ops.var, ops.wrap
    return lambda x: wrap(body(var(x)))


def _identity(x):
    return x


def _compile(node, ops):
    if isinstance(node, Const):
        value = ops.const(node.text)
        return lambda x: value
    if isinstance(node, Var):
        return _identity
    if isinstance(node, Unary):
        arg = _compile(node.arg, ops)
        if node.op == "neg":
            neg = ops.neg
            return lambda x: neg(arg(x))
        fn = getattr(ops, node.op)

        def unary(x):
            val = arg(x)
            try:
                return fn(val)
            except DomainError as exc:
                raise DomainError(f"{exc} in {unparse(node)!r}") from None

        return unary
    if isinstance(node, Pow):
        base, exponent, pow_ = _compile(node.base, ops), node.exponent, ops.pow

        def power(x):
            val = base(x)
            try:
                return pow_(val, exponent)
            except ZeroDivisionError:
                raise DomainError(
                    f"zero raised to negative power in {unparse(node)!r}"
                ) from None

        return power
    if isinstance(node, Binary):
        left, right = _compile(node.left, ops), _compile(node.right, ops)
        if node.op == "/":
            div = ops.div

            def divide(x):
                num, den = left(x), right(x)
                try:
                    return div(num, den)
                except ZeroDivisionError:
                    raise DomainError(f"division by zero in {unparse(node)!r}") from None

            return divide
        op = {"+": ops.add, "-": ops.sub, "*": ops.mul}[node.op]
        return lambda x: op(left(x), right(x))
    raise TypeError(f"not an AST node: {node!r}")
