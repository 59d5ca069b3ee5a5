"""Polynomial expression grammar: parsing and canonical formatting.

Grammar (no implicit multiplication):

    expr     := term (('+' | '-') term)*
    term     := unary ('*' unary)*
    unary    := '-'? factor
    factor   := base ('^' uint)?
    base     := rational | identifier | '(' expr ')'
    rational := uint ('/' uint)?

A power's degree, exponent times base degree (a constant base counts as 1),
is at most MAX_POWER_DEGREE, so no input asks for an unbounded expansion.
Parentheses nest at most MAX_NESTING deep, far inside the interpreter's
recursion limit. Digits are those int() reads (str.isdecimal), and a literal
over the interpreter's int-from-string limit is a ParseError.

format_poly emits terms in canonical order (graded, then lexicographic by
parameter name), with explicit '*' and '^', so parse_poly(format_poly(p)) == p.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Sequence

from .errors import UmvueError
from .poly import Polynomial


class ParseError(UmvueError):
    def __init__(self, message: str, position: int, expected: Sequence[str] = ()):
        self.position = position
        self.expected = tuple(expected)
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class UnknownParameter(UmvueError):
    def __init__(self, name: str, position: int):
        self.name = name
        self.position = position
        super().__init__(f"unknown parameter {name!r} at position {position}")


class ZeroDenominator(UmvueError):
    def __init__(self, position: int):
        self.position = position
        super().__init__(f"zero denominator at position {position}")


MAX_POWER_DEGREE = 512
MAX_NESTING = 100

# \d is str.isdecimal and \w is str.isalnum or '_'; an identifier must
# also start with a letter or '_', which the tokenizer checks
_TOKEN = re.compile(r"(?P<space>[ \t\r\n]+)|(?P<symbol>[-+*/^()])|(?P<uint>\d+)|(?P<ident>\w+)|(?P<bad>.)",
                    re.DOTALL)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # 'uint' | 'ident' | one of '+-*/^()' | 'end'
        self.text = text
        self.pos = pos


def _tokenize(expr: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN.finditer(expr):
        kind, text = match.lastgroup, match.group()
        if kind == "bad" or kind == "ident" and not (text[0].isalpha() or text[0] == "_"):
            raise ParseError(f"unexpected character {text[0]!r}", match.start())
        if kind != "space":
            tokens.append(_Token(text if kind == "symbol" else kind, text, match.start()))
    tokens.append(_Token("end", "", len(expr)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], parameters: Sequence[str]):
        self.tokens = tokens
        self.pos = 0
        self.variables = {name: Polynomial.variable(name) for name in parameters}
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.pos, [kind])
        return self.take()

    def uint(self) -> int:
        tok = self.expect("uint")
        try:
            return int(tok.text)
        except ValueError:  # longer than the interpreter's int-from-string limit
            raise ParseError(f"number of {len(tok.text)} digits is too long", tok.pos) from None

    def parse(self) -> Polynomial:
        result = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos, ["'+'", "'-'", "'*'", "end of input"])
        return result

    def expr(self) -> Polynomial:
        terms = [self.term()]
        while self.peek().kind in "+-":
            op = self.take()
            rhs = self.term()
            terms.append(rhs if op.kind == "+" else -rhs)
        return Polynomial.sum(terms)

    def term(self) -> Polynomial:
        result = self.unary()
        while self.peek().kind == "*":
            self.take()
            result = result * self.unary()
        return result

    def unary(self) -> Polynomial:
        if self.peek().kind == "-":
            self.take()
            return -self.factor()
        return self.factor()

    def factor(self) -> Polynomial:
        base = self.base()
        if self.peek().kind == "^":
            self.take()
            tok = self.peek()
            exponent = self.uint()
            if exponent * max(base.degree(), 1) > MAX_POWER_DEGREE:
                raise ParseError(f"power exceeds degree {MAX_POWER_DEGREE}", tok.pos)
            return base ** exponent
        return base

    def base(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "uint":
            num = self.uint()
            if self.peek().kind == "/":
                self.take()
                den_pos = self.peek().pos
                den = self.uint()
                if den == 0:
                    raise ZeroDenominator(den_pos)
                return Polynomial.constant(Fraction(num, den))
            return Polynomial.constant(num)
        if tok.kind == "ident":
            self.take()
            if tok.text not in self.variables:
                raise UnknownParameter(tok.text, tok.pos)
            return self.variables[tok.text]
        if tok.kind == "(":
            self.take()
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", tok.pos)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect(")")
            return inner
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.pos,
                         ["number", "identifier", "'('"])


def parse_poly(expr: str, parameters: Sequence[str]) -> Polynomial:
    """Parse an expression into an exact Polynomial.

    Identifiers must be declared parameters; '/' is only valid inside a
    rational literal.
    """
    return _Parser(_tokenize(expr), parameters).parse()


def number_text(x: Fraction) -> str:
    """str(x); a number past the interpreter's int-to-string limit is a
    UmvueError (exit 2) rather than a ValueError."""
    try:
        return str(x)
    except ValueError:
        raise UmvueError(f"a number has more than {sys.get_int_max_str_digits()} digits and cannot be printed") from None


def format_poly(p: Polynomial) -> str:
    """Canonical string form; round-trips through parse_poly."""
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for mono, coeff in p.sorted_terms():
        mag = abs(coeff)
        factors = [name if e == 1 else f"{name}^{e}" for name, e in mono.exps]
        if not factors:
            body = number_text(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = number_text(mag) + "*" + "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)
