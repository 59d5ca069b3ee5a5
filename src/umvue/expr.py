"""Polynomial expression grammar: parsing and canonical formatting.

Grammar (no implicit multiplication):

    expr     := term (('+' | '-') term)*
    term     := unary ('*' unary)*
    unary    := '-'? factor
    factor   := base ('^' uint)?
    base     := rational | identifier | '(' expr ')'
    rational := uint ('/' uint)?

A power's degree, exponent times base degree (a constant base counts as 1),
is at most MAX_POWER_DEGREE, and so is each parameter's degree in a term,
summed over its factors, monomial and parenthesised alike. A term is refused
at the factor that crosses the bound, before any power in it is expanded, so
(1+theta)^500*(1+theta)^500 fails at once. A power of a polynomial in several
parameters may still have many terms: (1+theta+eta)^128 is within both bounds
and has 8385 (ROADMAP.md, open item 5). Parentheses nest at most MAX_NESTING
deep, far inside the interpreter's recursion limit. Digits are those int()
reads (str.isdecimal), and a literal over the interpreter's int-from-string
limit is a ParseError.

A term is read in one pass: its numbers multiply into one coefficient and its
parameter powers add into one exponent map, so it builds a single Monomial.
Only a parenthesised factor is a Polynomial; a term's are raised and
multiplied as one after the term is read. An expression merges the
(monomial, coefficient) pairs of all its terms at once.

format_poly emits terms in canonical order (graded, then lexicographic by
parameter name), with explicit '*' and '^', so parse_poly(format_poly(p)) == p.
A text in that form, which every model file and target the engine writes
has, skips the grammar: _CanonicalReader reads it with one fullmatch and one
findall, and parse_polys shares its monomial table across a model's cells.
Any other text, and any it doubts, goes to the grammar parser, the only path
that raises.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import prod
from typing import Iterable, Sequence

from .errors import UmvueError
from .poly import Monomial, Polynomial, _collect


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
        powers: list[tuple[Polynomial, int]] = []  # parenthesised factors, expanded last
        power_degrees: dict[str, int] = {}  # each parameter's degree in their product
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
            # a parameter's degree in the term, its exponent in exps plus its
            # degree in the powers, is bounded before any power is expanded
            if kind == "uint":
                coeff *= base ** exponent
            elif kind == "ident":
                exps[name] = exps.get(name, 0) + exponent
                if exps[name] + power_degrees.get(name, 0) > MAX_POWER_DEGREE:
                    raise ParseError(f"product exceeds degree {MAX_POWER_DEGREE} in {name}", start)
            else:
                degrees: dict[str, int] = {}
                for mono in base.terms:
                    for var, e in mono.exps:
                        degrees[var] = max(degrees.get(var, 0), e)
                for var in sorted(degrees):
                    power_degrees[var] = power_degrees.get(var, 0) + degrees[var] * exponent
                    if power_degrees[var] + exps.get(var, 0) > MAX_POWER_DEGREE:
                        raise ParseError(f"product exceeds degree {MAX_POWER_DEGREE} in {var}", start)
                powers.append((base, exponent))
            if kinds[self.pos] != "*":
                break
            self.pos += 1
        single = (Monomial(exps.items()), coeff)
        if not powers:
            return [single]
        return list(prod((base ** e for base, e in powers), start=Polynomial((single,))).terms.items())


# format_poly's form: signed terms joined by ' + ' or ' - ', each a rational
# magnitude, a '*'-joined product of parameter powers, or the two joined by '*'
_NAME = r"[^\W\d]\w*"
_MONOMIAL = rf"{_NAME}(?:\^\d+)?(?:\*{_NAME}(?:\^\d+)?)*"
_BODY = rf"\d+(?:/\d+)?(?:\*{_MONOMIAL})?|{_MONOMIAL}"
_CANONICAL = re.compile(rf"-?(?:{_BODY})(?: [-+] (?:{_BODY}))*")
# per term of a text in that form: its sign, numerator, denominator and
# monomial (after a magnitude or alone)
_TERM = re.compile(rf"(?:^| )([-+]?) ?(?:(\d+)(?:/(\d+))?(?:\*({_MONOMIAL}))?|({_MONOMIAL}))")


class _CanonicalReader:
    """Reads a text in format_poly's form in one pass, or returns None.

    One fullmatch checks the whole text and one findall walks its terms;
    each term's coefficient is built from its integers and its monomial is
    looked up by its text in a table that the texts of one reader share.
    A text is refused, for the grammar parser to read or reject, at any
    doubt: a name that is undeclared or does not start with a letter or
    '_', an exponent 0, a zero denominator, a literal past the
    int-from-string limit, or a parameter's degree in a term past
    MAX_POWER_DEGREE. Every name is checked as it is read, so even one whose
    power drops out of the monomial is.
    """

    def __init__(self, parameters: Sequence[str]):
        self.names = frozenset(p for p in parameters if p[:1].isalpha() or p[:1] == "_")
        self.monomials: dict[str, Monomial | None] = {"": Monomial()}

    def monomial(self, text: str) -> Monomial | None:
        exps: dict[str, int] = {}
        for factor in text.split("*"):
            name, _, power = factor.partition("^")
            try:
                e = int(power or 1)
            except ValueError:  # past the int-from-string limit
                return None
            if name not in self.names or e == 0 or exps.get(name, 0) + e > MAX_POWER_DEGREE:
                return None
            exps[name] = exps.get(name, 0) + e
        return Monomial(exps.items())

    def read(self, text: str) -> Polynomial | None:
        if not _CANONICAL.fullmatch(text):
            return None
        monomials = self.monomials
        terms = []
        try:
            for sign, num, den, after, alone in _TERM.findall(text):
                key = after or alone
                if key not in monomials:
                    monomials[key] = self.monomial(key)
                mono, n, d = monomials[key], int(num or 1), int(den or 1)
                if mono is None or d == 0:
                    return None
                coeff = Fraction(n, d) if den else Fraction(n)
                terms.append((mono, -coeff if sign == "-" else coeff))
        except ValueError:  # a literal past the int-from-string limit
            return None
        return _collect(terms)


def parse_polys(exprs: Iterable[str], parameters: Sequence[str]) -> list[Polynomial]:
    """parse_poly of each text, the texts sharing one monomial table, as the
    cells of one model do."""
    reader = _CanonicalReader(parameters)
    return [p if (p := reader.read(expr)) is not None else _Parser(expr, parameters).parse() for expr in exprs]


def parse_poly(expr: str, parameters: Sequence[str]) -> Polynomial:
    """Parse an expression into an exact Polynomial.

    Identifiers must be declared parameters; '/' is only valid inside a
    rational literal. A text in format_poly's form is read in one pass;
    any other text, and every error, goes through the grammar parser.
    """
    return parse_polys([expr], parameters)[0]


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
