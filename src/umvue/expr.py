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

format_poly emits terms in canonical order (graded, then lexicographic by
parameter name), with explicit '*' and '^', so parse_poly(format_poly(p)) == p.
"""

from __future__ import annotations

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


_SYMBOLS = "+-*/^()"

MAX_POWER_DEGREE = 512


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # 'uint' | 'ident' | one of _SYMBOLS | 'end'
        self.text = text
        self.pos = pos


def _tokenize(expr: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(expr):
        ch = expr[i]
        if ch in " \t\r\n":
            i += 1
        elif ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(expr) and expr[j].isdigit():
                j += 1
            tokens.append(_Token("uint", expr[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(expr) and (expr[j].isalnum() or expr[j] == "_"):
                j += 1
            tokens.append(_Token("ident", expr[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", len(expr)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], parameters: Sequence[str]):
        self.tokens = tokens
        self.pos = 0
        self.parameters = set(parameters)

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

    def parse(self) -> Polynomial:
        result = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos, ["'+'", "'-'", "'*'", "end of input"])
        return result

    def expr(self) -> Polynomial:
        result = self.term()
        while self.peek().kind in "+-":
            op = self.take()
            rhs = self.term()
            result = result + rhs if op.kind == "+" else result - rhs
        return result

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
            tok = self.expect("uint")
            exponent = int(tok.text)
            if exponent * max(base.degree(), 1) > MAX_POWER_DEGREE:
                raise ParseError(f"power exceeds degree {MAX_POWER_DEGREE}", tok.pos)
            return base ** exponent
        return base

    def base(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "uint":
            self.take()
            num = int(tok.text)
            if self.peek().kind == "/":
                self.take()
                den_tok = self.expect("uint")
                if int(den_tok.text) == 0:
                    raise ZeroDenominator(den_tok.pos)
                return Polynomial.constant(Fraction(num, int(den_tok.text)))
            return Polynomial.constant(num)
        if tok.kind == "ident":
            self.take()
            if tok.text not in self.parameters:
                raise UnknownParameter(tok.text, tok.pos)
            return Polynomial.variable(tok.text)
        if tok.kind == "(":
            self.take()
            inner = self.expr()
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


def format_poly(p: Polynomial) -> str:
    """Canonical string form; round-trips through parse_poly."""
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for mono, coeff in p.sorted_terms():
        mag = abs(coeff)
        factors = [name if e == 1 else f"{name}^{e}" for name, e in mono.exps]
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)
