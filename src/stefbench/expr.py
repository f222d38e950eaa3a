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

An AST compiles, once per "ops" adapter, into nested closures that
evaluate it: :class:`HPOps` evaluates to a high-precision scalar,
:class:`JetOps` to a :class:`~stefbench.jets.TaylorJet`. Compiling converts
each decimal literal once, at working precision directly from its text and
never through a machine float; each call then runs the same operations in
the same order as a walk over the tree would, so the result and any
:class:`DomainError` message do not depend on how often it is compiled.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import jets
from .errors import DomainError, ParseError
from .precision import PrecisionContext

# The grammar's elementary functions.
ELEMENTARY = ("sin", "cos", "exp", "ln", "arctan", "sqrt", "abs")


# -- AST -----------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    text: str


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' or one of ELEMENTARY
    arg: object


@dataclass(frozen=True)
class Binary:
    op: str  # '+', '-', '*', '/'
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


# -- tokenizer -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<num>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

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

    def parse(self):
        node = self.binary()
        kind, value, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected {value!r}", pos)
        return node

    def binary(self, level: int = 1):
        """Operands joined left to right by the binary operators of ``level``.

        Each operand parses one level up, so a higher level binds tighter;
        the climb ends at the level of unary minus.
        """
        if level == _PREC["neg"]:
            return self.unary()
        node = self.binary(level + 1)
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and _PREC.get(value) == level:
                self.advance()
                node = Binary(value, node, self.binary(level + 1))
            else:
                return node

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Unary("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            node = Pow(node, self.integer_exponent())
        return node

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
            raise ParseError(f"non-integer exponent {value!r}", pos)
        self.advance()
        return sign * int(value)

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return Const(value)
        if kind == "ident":
            if value == "x":
                return Var()
            if value in ELEMENTARY:
                self.expect_op("(")
                arg = self.binary()
                self.expect_op(")")
                return Unary(value, arg)
            raise ParseError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            node = self.binary()
            self.expect_op(")")
            return node
        shown = value if value else "end of input"
        raise ParseError(f"expected operand, found {shown!r}", pos)


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
    """Scalar evaluation adapter over a precision context.

    The elementary functions are the context's own methods, and abs is its
    mpmath context's ``fabs``, all looked up when the adapter is built.
    """

    def __init__(self, ctx: PrecisionContext):
        self.ctx = ctx
        self.var = ctx.mpf
        self.sin, self.cos, self.exp, self.ln = ctx.sin, ctx.cos, ctx.exp, ctx.ln
        self.arctan, self.sqrt, self.abs = ctx.atan, ctx.sqrt, ctx.mp.fabs

    def const(self, text: str):
        return self.ctx.mpf(text)


class JetOps:
    """Taylor-jet evaluation adapter of a fixed truncation order."""

    sin = staticmethod(jets.jet_sin)
    cos = staticmethod(jets.jet_cos)
    exp = staticmethod(jets.jet_exp)
    ln = staticmethod(jets.jet_ln)
    arctan = staticmethod(jets.jet_atan)
    sqrt = staticmethod(jets.jet_sqrt)
    abs = staticmethod(jets.jet_abs)

    def __init__(self, ctx: PrecisionContext, order: int):
        self.ctx = ctx
        self.order = order

    def const(self, text: str):
        return jets.constant_jet(self.ctx.mpf(text), self.order, self.ctx)

    def var(self, p):
        return jets.seed_jet(p, self.order, self.ctx)


def compile_ast(node, ops):
    """Compile ``node`` into a function of x that evaluates it through ``ops``.

    The function adapts x via ``ops.var`` on every call; literals are
    converted once, here. Operands are evaluated left before right, so
    results and DomainError messages are those of a walk over the tree.
    """
    body = _compile(node, ops)
    var = ops.var
    return lambda x: body(var(x))


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
            return lambda x: -arg(x)
        fn = getattr(ops, node.op)

        def unary(x):
            val = arg(x)
            try:
                return fn(val)
            except DomainError as exc:
                raise DomainError(f"{exc} in {unparse(node)!r}") from None

        return unary
    if isinstance(node, Pow):
        base, exponent = _compile(node.base, ops), node.exponent

        def power(x):
            val = base(x)
            try:
                return val ** exponent
            except ZeroDivisionError:
                raise DomainError(
                    f"zero raised to negative power in {unparse(node)!r}"
                ) from None

        return power
    if isinstance(node, Binary):
        left, right = _compile(node.left, ops), _compile(node.right, ops)
        if node.op == "+":
            return lambda x: left(x) + right(x)
        if node.op == "-":
            return lambda x: left(x) - right(x)
        if node.op == "*":
            return lambda x: left(x) * right(x)

        def divide(x):
            num, den = left(x), right(x)
            try:
                return num / den
            except ZeroDivisionError:
                raise DomainError(f"division by zero in {unparse(node)!r}") from None

        return divide
    raise TypeError(f"not an AST node: {node!r}")
