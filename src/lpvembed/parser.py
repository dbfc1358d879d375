"""Recursive-descent parser for the scalar expression grammar.

::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := number | ident | ident '(' expr ')' | '(' expr ')'

``^`` is right-associative and binds tighter than unary minus, so
``-x^2`` means ``-(x^2)`` and ``2^3^2`` means ``2^(3^2)``.  Implicit
multiplication is not recognized; ``2x`` is a parse error.  Numbers are
unsigned decimal literals with optional fraction and exponent; the sign
is always the unary operator.

Identifiers resolve in this order: known function name when followed by
``(``, then a caller-supplied constant (substituted immediately), then a
variable.  When the caller restricts the variable vocabulary, anything
unresolved is a parse error that names the offending identifier.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Mapping

from .expr import FUNCTIONS, Const, Expr, Var, add, call, div, mul, neg, pow_


class ParseError(Exception):
    """Raised on any lexical or syntactic problem, with the offset in the source."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)

# constants every expression may use, on top of caller-supplied ones
BUILTIN_CONSTANTS: dict[str, float] = {"pi": math.pi}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            # nothing matched: skip whitespace manually to report cleanly
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = n - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        kind = m.lastgroup
        if kind is None:
            break
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str,
                 variables: frozenset[str] | None,
                 constants: Mapping[str, float]):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.variables = variables
        self.constants = constants

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("end", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected '{op}'", pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return e

    def expr(self) -> Expr:
        terms = [self.term()]  # one add builds no sum that is dropped
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                rhs = self.term()
                terms.append(rhs if value == "+" else neg(rhs))
            else:
                return add(*terms)

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                rhs = self.unary()
                e = mul(e, rhs) if value == "*" else div(e, rhs)
            else:
                return e

    def unary(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.next()
            return pow_(base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, value, pos = self.next()
        if kind == "number":
            return Const(float(value))
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function '{value}'", pos)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return call(value, arg)
            if value in self.constants:
                return Const(self.constants[value])
            if value in BUILTIN_CONSTANTS:
                return Const(BUILTIN_CONSTANTS[value])
            if self.variables is not None and value not in self.variables:
                raise ParseError(f"unknown identifier '{value}'", pos)
            return Var(value)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_expr(text: str,
               variables: Iterable[str] | None = None,
               constants: Mapping[str, float] | None = None) -> Expr:
    """Parse ``text`` into an expression tree.

    Parameters
    ----------
    text:
        Source in the grammar above.
    variables:
        Allowed variable names.  None admits any identifier; otherwise an
        identifier outside this set (and not a constant) is a ParseError.
    constants:
        Name -> value substitutions applied during parsing, checked before
        the variable vocabulary.  ``pi`` is always available.
    """
    vocab = None if variables is None else frozenset(variables)
    return _Parser(text, vocab, constants or {}).parse()
