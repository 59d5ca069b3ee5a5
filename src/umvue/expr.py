"""Polynomial expression grammar: parsing and canonical formatting.

Grammar (no implicit multiplication):

    expr     := term (('+' | '-') term)*
    term     := unary ('*' unary)*
    unary    := '-'? factor
    factor   := base ('^' uint)?
    base     := rational | identifier | '(' expr ')'
    rational := uint ('/' uint)?

A power's degree, exponent times base degree (a constant base counts as 1),
is at most MAX_POWER_DEGREE. The bound is per power: a product of powers is
not bounded, so (1+theta)^500*(1+theta)^500*(1+theta)^500, 41 characters,
expands to degree 1500, 1501 terms (ROADMAP.md, open item 5).
Parentheses nest at most MAX_NESTING deep, far inside the interpreter's
recursion limit. Digits are those int() reads (str.isdecimal), and a literal
over the interpreter's int-from-string limit is a ParseError.

A term is read in one pass: its numbers multiply into one coefficient and its
parameter powers add into one exponent map, so it builds a single Monomial.
Only a parenthesised factor is a Polynomial, multiplied and raised as one. An
expression merges the (monomial, coefficient) pairs of all its terms at once.

format_poly emits terms in canonical order (graded, then lexicographic by
parameter name), with explicit '*' and '^', so parse_poly(format_poly(p)) == p.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Sequence

from .errors import UmvueError
from .poly import Monomial, Polynomial


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
# also start with a letter or '_', which the tokenizer checks. Spaces, tabs
# and newlines match nothing, so finditer skips them.
_TOKEN = re.compile(r"(?P<symbol>[-+*/^()])|(?P<uint>\d+)|(?P<ident>\w+)|(?P<bad>[^ \t\r\n])")


def _tokenize(expr: str) -> tuple[list[str], list[str], list[int]]:
    """Parallel lists: kinds ('uint', 'ident', one of '+-*/^()', 'end'), texts, starts."""
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    for match in _TOKEN.finditer(expr):
        kind, text = match.lastgroup, match.group()
        if kind == "bad" or kind == "ident" and not (text[0].isalpha() or text[0] == "_"):
            raise ParseError(f"unexpected character {text[0]!r}", match.start())
        kinds.append(text if kind == "symbol" else kind)
        texts.append(text)
        starts.append(match.start())
    kinds.append("end")
    texts.append("")
    starts.append(len(expr))
    return kinds, texts, starts


class _Parser:
    def __init__(self, expr: str, parameters: Sequence[str]):
        self.kinds, self.texts, self.starts = _tokenize(expr)
        self.pos = 0
        self.parameters = frozenset(parameters)
        self.depth = 0

    def unexpected(self, expected: Sequence[str]) -> ParseError:
        return ParseError(f"unexpected {self.texts[self.pos] or 'end of input'!r}", self.starts[self.pos], expected)

    def uint(self) -> int:
        if self.kinds[self.pos] != "uint":
            raise self.unexpected(["uint"])
        text = self.texts[self.pos]
        self.pos += 1
        try:
            return int(text)
        except ValueError:  # longer than the interpreter's int-from-string limit
            raise ParseError(f"number of {len(text)} digits is too long", self.starts[self.pos - 1]) from None

    def parse(self) -> Polynomial:
        result = self.expr()
        if self.kinds[self.pos] != "end":
            raise ParseError(f"unexpected {self.texts[self.pos]!r}", self.starts[self.pos],
                             ["'+'", "'-'", "'*'", "end of input"])
        return result

    def expr(self) -> Polynomial:
        terms = self.term(1)
        while self.kinds[self.pos] in "+-":
            self.pos += 1
            terms += self.term(1 if self.kinds[self.pos - 1] == "+" else -1)
        return Polynomial(terms)

    def term(self, sign: int) -> list[tuple[Monomial, int | Fraction]]:
        # the terms of sign * the product of its '*'-separated unary factors
        kinds = self.kinds
        coeff: int | Fraction = sign
        exps: dict[str, int] = {}
        product: Polynomial | None = None
        while True:
            if kinds[self.pos] == "-":
                self.pos += 1
                coeff = -coeff
            kind, start = kinds[self.pos], self.starts[self.pos]
            if kind == "uint":
                base: int | Fraction | Polynomial = self.uint()
                if kinds[self.pos] == "/":
                    self.pos += 1
                    den_pos = self.starts[self.pos]
                    den = self.uint()
                    if den == 0:
                        raise ZeroDenominator(den_pos)
                    base = Fraction(base, den)
                degree = 0
            elif kind == "ident":
                name = self.texts[self.pos]
                if name not in self.parameters:
                    raise UnknownParameter(name, start)
                self.pos += 1
                degree = 1
            elif kind == "(":
                self.pos += 1
                if self.depth == MAX_NESTING:
                    raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", start)
                self.depth += 1
                base = self.expr()
                self.depth -= 1
                if kinds[self.pos] != ")":
                    raise self.unexpected([")"])
                self.pos += 1
                degree = base.degree()
            else:
                raise self.unexpected(["number", "identifier", "'('"])
            exponent = 1
            if kinds[self.pos] == "^":
                self.pos += 1
                exponent_pos = self.starts[self.pos]
                exponent = self.uint()
                if exponent * max(degree, 1) > MAX_POWER_DEGREE:
                    raise ParseError(f"power exceeds degree {MAX_POWER_DEGREE}", exponent_pos)
            if kind == "uint":
                coeff *= base ** exponent
            elif kind == "ident":
                exps[name] = exps.get(name, 0) + exponent
            else:
                power = base if exponent == 1 else base ** exponent
                product = power if product is None else product * power
            if kinds[self.pos] != "*":
                break
            self.pos += 1
        single = (Monomial(exps.items()), coeff)
        return [single] if product is None else list((product * Polynomial((single,))).terms.items())


def parse_poly(expr: str, parameters: Sequence[str]) -> Polynomial:
    """Parse an expression into an exact Polynomial.

    Identifiers must be declared parameters; '/' is only valid inside a
    rational literal.
    """
    return _Parser(expr, parameters).parse()


def _unprintable() -> UmvueError:
    return UmvueError(f"a number has more than {sys.get_int_max_str_digits()} digits and cannot be printed")


def number_text(x: Fraction) -> str:
    """str(x); a number past the interpreter's int-to-string limit is a
    UmvueError (exit 2) rather than a ValueError."""
    try:
        return str(x)
    except ValueError:
        raise _unprintable() from None


def format_poly(p: Polynomial) -> str:
    """Canonical string form; round-trips through parse_poly."""
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    try:
        for _, exps, coeff in sorted((sum(e for _, e in mono.exps), mono.exps, coeff)
                                     for mono, coeff in p.terms.items()):
            num, den = coeff.numerator, coeff.denominator
            factors = "*".join(name if e == 1 else f"{name}^{e}" for name, e in exps)
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            if not factors:
                body = mag
            elif mag == "1":
                body = factors
            else:
                body = f"{mag}*{factors}"
            if pieces:
                pieces.append(("- " if num < 0 else "+ ") + body)
            else:
                pieces.append("-" + body if num < 0 else body)
    except ValueError:  # an integer past the interpreter's int-to-string limit
        raise _unprintable() from None
    return " ".join(pieces)
