"""Differential tests of the integer and single-map fast paths against the
plain Fraction code they replace."""

import random
import re
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import sympy
from hypothesis import given, settings, strategies as st

from umvue import (
    CategoricalModel,
    Estimability,
    EstimateResult,
    Matrix,
    Partition,
    Statistic,
    UmvueVerdict,
    ValidationIssue,
    ValidationReport,
    coefficient_matrix,
    corpus_model,
    expectation,
    is_umvue,
    minimal_sufficient_partition,
    mve_partition,
    random_model,
    rref,
    umvue_for,
    umvue_functionals,
    validate_model,
    zero_mean_space,
)
from umvue.corpus import CORPUS
from umvue.expr import (
    MAX_NESTING,
    MAX_POWER_DEGREE,
    ParseError,
    UnknownParameter,
    ZeroDenominator,
    format_poly,
    parse_poly,
)
from umvue.model import interior_grid
from umvue.poly import MissingMonomial, Monomial, Polynomial, coeff_vector

from helpers import block_constant_statistic, paper_power, random_fraction, random_statistic

NAMES = ("theta", "eta", "mu")
UNDECLARED = "nu"


def domain_grid(m: CategoricalModel) -> list[dict[str, Fraction]]:
    """Cartesian grid of interior sample points, one axis per parameter."""
    axes = [interior_grid(*m.domain[name]) for name in m.parameters]
    return [dict(zip(m.parameters, point)) for point in product(*axes)]


def reference_validate(m: CategoricalModel) -> ValidationReport:
    """validate_model as a plain loop: folded sums and Polynomial.evaluate
    at every grid point, stopping at the first point with a bad cell."""
    issues = []
    if len(set(m.support)) != m.n:
        dupes = sorted({s for s in m.support if m.support.count(s) > 1})
        issues.append(ValidationIssue("duplicate-label", f"duplicate labels: {', '.join(dupes)}"))
    for k, p in enumerate(m.pmf):
        extra = p.parameters() - set(m.parameters)
        if extra:
            issues.append(ValidationIssue(
                "undeclared-parameter",
                f"cell {k} uses undeclared parameters: {', '.join(sorted(extra))}",
                component=k,
            ))
    residual = Polynomial.zero()
    for p in m.pmf:
        residual = residual + p
    residual = residual - Polynomial.constant(1)
    if not residual.is_zero():
        issues.append(ValidationIssue(
            "not-normalized",
            f"cell probabilities sum to 1 + ({format_poly(residual)})",
            residual=residual,
        ))
    for k, p in enumerate(m.pmf):
        if p.is_zero():
            issues.append(ValidationIssue("zero-component", f"cell {k} is identically zero", component=k))
    if not any(issue.code == "undeclared-parameter" for issue in issues):
        for point in domain_grid(m):
            bad = [k for k, p in enumerate(m.pmf) if not p.is_zero() and p.evaluate(point) <= 0]
            if bad:
                where = ", ".join(f"{name}={val}" for name, val in point.items())
                for k in bad:
                    issues.append(ValidationIssue("non-positive", f"cell {k} is not positive at {where}",
                                                  component=k, point=tuple(point.items())))
                break
    return ValidationReport(ok=not issues, issues=tuple(issues))


fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def polynomials(draw, names=NAMES, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = Monomial({name: draw(st.integers(0, 3)) for name in names})
        terms[mono] = terms.get(mono, Fraction(0)) + draw(fractions)
    return Polynomial(terms)


@st.composite
def models(draw):
    parameters = list(NAMES[:draw(st.integers(1, 3))])
    domain = {}
    for name in parameters:
        lo, hi = sorted(draw(st.lists(fractions, min_size=2, max_size=2, unique=True)))
        domain[name] = (lo, hi)
    used = parameters + [UNDECLARED] if draw(st.integers(0, 9)) == 0 else parameters
    cells = []
    for _ in range(draw(st.integers(1, 5))):
        # a positive constant offset makes cells that pass many grid points
        offset = draw(st.sampled_from([0, 0, 1, 8, 200]))
        cells.append(draw(polynomials(names=used)) + offset)
    if draw(st.booleans()):  # normalize through the last cell
        cells.append(Polynomial.constant(1) - Polynomial.sum(cells))
    labels = [str(k % 4) if draw(st.integers(0, 9)) == 0 else str(k) for k in range(len(cells))]
    return CategoricalModel(labels, cells, parameters, domain)


@settings(max_examples=400, deadline=None)
@given(models())
def test_validate_model_matches_the_evaluate_loop(m):
    assert validate_model(m) == reference_validate(m)


@settings(max_examples=200, deadline=None)
@given(st.lists(polynomials(), max_size=8))
def test_sum_equals_folded_addition(polys):
    folded = Polynomial.zero()
    for p in polys:
        folded = folded + p
    total = Polynomial.sum(polys)
    assert total == folded
    assert all(c != 0 for c in total.terms.values())


@settings(max_examples=200, deadline=None)
@given(polynomials(max_terms=8))
def test_parse_inverts_format(p):
    assert parse_poly(format_poly(p), NAMES) == p


@st.composite
def expressions(draw, depth=3):
    """Random source text in the parser's grammar."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        rationals = st.tuples(st.integers(0, 30), st.integers(1, 9)).map(lambda t: f"{t[0]}/{t[1]}")
        atom = draw(st.one_of(st.sampled_from(NAMES), st.integers(0, 30).map(str), rationals))
        return atom + (f"^{draw(st.integers(0, 3))}" if draw(st.booleans()) else "")
    parts = [draw(expressions(depth=depth - 1)) for _ in range(draw(st.integers(1, 4)))]
    text = parts[0]
    for part in parts[1:]:
        text += draw(st.sampled_from([" + ", " - ", "*", "*-"])) + part
    return f"({text})" + (f"^{draw(st.integers(0, 2))}" if draw(st.booleans()) else "")


@settings(max_examples=200, deadline=None)
@given(expressions())
def test_parse_matches_sympy(text):
    symbols = sympy.symbols(NAMES)
    # a rational literal is one base in the grammar: 1/2^2 is (1/2)^2
    source = re.sub(r"(\d+)/(\d+)", r"Rational(\1, \2)", text).replace("^", "**")
    expected = sympy.Poly(sympy.sympify(source), *symbols)
    got = parse_poly(text, NAMES)
    assert {Monomial(dict(zip(NAMES, exps))): Fraction(int(c.p), int(c.q))
            for exps, c in expected.terms() if c != 0} == got.terms


# --- the term-at-a-time parser against the recursive-descent one it replaces --

_TOKEN = re.compile(r"(?P<space>[ \t\r\n]+)|(?P<symbol>[-+*/^()])|(?P<uint>\d+)|(?P<ident>\w+)|(?P<bad>.)",
                    re.DOTALL)


class ReferenceParser:
    """One Polynomial per factor, multiplied and summed as the grammar reads."""

    def __init__(self, text: str, parameters):
        self.tokens = []  # (kind, text, position)
        for match in _TOKEN.finditer(text):
            kind, tok = match.lastgroup, match.group()
            if kind == "bad" or kind == "ident" and not (tok[0].isalpha() or tok[0] == "_"):
                raise ParseError(f"unexpected character {tok[0]!r}", match.start())
            if kind != "space":
                self.tokens.append((tok if kind == "symbol" else kind, tok, match.start()))
        self.tokens.append(("end", "", len(text)))
        self.pos = 0
        self.variables = {name: Polynomial.variable(name) for name in parameters}
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"unexpected {tok[1] or 'end of input'!r}", tok[2], [kind])
        return self.take()

    def uint(self) -> int:
        _, text, position = self.expect("uint")
        try:
            return int(text)
        except ValueError:
            raise ParseError(f"number of {len(text)} digits is too long", position) from None

    def parse(self) -> Polynomial:
        result = self.expr()
        kind, text, position = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", position, ["'+'", "'-'", "'*'", "end of input"])
        return result

    def expr(self) -> Polynomial:
        terms = [self.term()]
        while self.peek()[0] in "+-":
            op = self.take()[0]
            rhs = self.term()
            terms.append(rhs if op == "+" else -rhs)
        return Polynomial.sum(terms)

    def term(self) -> Polynomial:
        degrees: dict[str, int] = {}  # each parameter's degree over the factors so far
        result = self.bounded_unary(degrees)
        while self.peek()[0] == "*":
            self.take()
            result = result * self.bounded_unary(degrees)
        return result

    def bounded_unary(self, degrees: dict[str, int]) -> Polynomial:
        """The next unary, after adding its degree in each parameter to degrees;
        a sum past MAX_POWER_DEGREE raises at the factor, after any sign."""
        position = self.tokens[self.pos + (self.peek()[0] == "-")][2]
        factor = self.unary()
        for name in sorted(factor.parameters()):
            degrees[name] = degrees.get(name, 0) + max(dict(mono.exps).get(name, 0) for mono in factor.terms)
            if degrees[name] > MAX_POWER_DEGREE:
                raise ParseError(f"product exceeds degree {MAX_POWER_DEGREE} in {name}", position)
        return factor

    def unary(self) -> Polynomial:
        if self.peek()[0] == "-":
            self.take()
            return -self.factor()
        return self.factor()

    def factor(self) -> Polynomial:
        base = self.base()
        if self.peek()[0] == "^":
            self.take()
            position = self.peek()[2]
            exponent = self.uint()
            if exponent * max(base.degree(), 1) > MAX_POWER_DEGREE:
                raise ParseError(f"power exceeds degree {MAX_POWER_DEGREE}", position)
            return base ** exponent
        return base

    def base(self) -> Polynomial:
        kind, text, position = self.peek()
        if kind == "uint":
            num = self.uint()
            if self.peek()[0] == "/":
                self.take()
                den_position = self.peek()[2]
                den = self.uint()
                if den == 0:
                    raise ZeroDenominator(den_position)
                return Polynomial.constant(Fraction(num, den))
            return Polynomial.constant(num)
        if kind == "ident":
            self.take()
            if text not in self.variables:
                raise UnknownParameter(text, position)
            return self.variables[text]
        if kind == "(":
            self.take()
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", position)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect(")")
            return inner
        raise ParseError(f"unexpected {text or 'end of input'!r}", position, ["number", "identifier", "'('"])


def outcome(parse, text: str, parameters):
    """The parsed terms, or the error's type, message and position."""
    try:
        p = parse(text, parameters)
    except (ParseError, UnknownParameter, ZeroDenominator) as exc:
        return type(exc), str(exc), exc.position
    assert all(type(c) is Fraction for c in p.terms.values())
    return p.terms


def reference_parse(text: str, parameters) -> Polynomial:
    return ReferenceParser(text, parameters).parse()


# pieces of token soup: numbers, declared and undeclared names, every
# operator, spaces, characters the tokenizer refuses, decimal digits of
# another script, and exponents either side of the degree bound
SOUP = ["0", "1", "2", "3", "12", "007", "٣", "theta", "eta", "mu", "nu", "_x", "x1", "²", "1a",
        "+", "-", "-", "*", "*", "*", "/", "^", "^", "(", "(", ")", ")",
        " ", "  ", "\t", "\n", "\r", "\x0b", "\xa0", "!", ".",
        "^0", "^1", "^2", "^3", "^512", "^513", "^257", "1/0", "0/5", "3/4", "10^300"]
RARE = ["", "theta + ", "9" * 5000, "(" * 101 + "theta" + ")" * 101, "(" * 100 + "theta" + ")" * 100,
        "(theta + eta)^40", "(theta + 1)^600", "(1 - theta)^513", "theta^512*-theta^512"]


def grammar_text(rng: random.Random, depth: int = 2) -> str:
    """A random text in the grammar: signed terms of unary factors, powers
    and parenthesised subexpressions."""
    def factor() -> str:
        kind = rng.randrange(5 if depth else 4)
        if kind == 0:
            base = str(rng.randint(0, 20))
        elif kind == 1:
            base = f"{rng.randint(0, 20)}/{rng.randint(0, 9)}"
        elif kind in (2, 3):
            base = rng.choice(NAMES)
        else:  # a small power of a subexpression, so expansions stay cheap
            return "(" + grammar_text(rng, depth - 1) + ")" + rng.choice(["", "", "^0", "^2"])
        sign = "-" if rng.randrange(4) == 0 else ""
        return sign + base + (f"^{rng.randint(0, 3)}" if rng.randrange(3) == 0 else "")

    text = ""
    for k in range(rng.randint(1, 3)):
        if k or rng.randrange(4) == 0:
            text += rng.choice([" + ", " - ", "+", "-"])
        text += "*".join(factor() for _ in range(rng.randint(1, 3)))
    return text


def soup(rng: random.Random) -> str:
    if rng.randrange(500) == 0:
        return rng.choice(RARE)
    if rng.randrange(2):
        return "".join(rng.choice(SOUP) for _ in range(rng.randint(1, 12)))
    text = grammar_text(rng, rng.randrange(3))
    if rng.randrange(2):  # one piece of soup inserted somewhere, spaced so it
        cut = rng.randint(0, len(text))  # cannot lengthen a number next to it
        text = text[:cut] + " " + rng.choice(SOUP) + " " + text[cut:]
    return text


def test_parse_matches_the_recursive_descent_parser_on_token_soup():
    rng = random.Random(15)
    parsed = 0
    for _ in range(20000):
        text = soup(rng)
        expected = outcome(reference_parse, text, NAMES)
        assert outcome(parse_poly, text, NAMES) == expected, text
        parsed += isinstance(expected, dict)
    assert parsed > 2000  # valid texts are covered, not only errors


def test_parse_matches_the_recursive_descent_parser_on_model_texts():
    for m in [*corpus_cases(), *random_cases(300, 15)]:
        for p in m.pmf:
            text = format_poly(p)
            assert outcome(parse_poly, text, m.parameters) == outcome(reference_parse, text, m.parameters)


SYMBOLS = dict(zip(NAMES, sympy.symbols(NAMES)))


def rational(c: Fraction) -> sympy.Rational:
    return sympy.Rational(c.numerator, c.denominator)


def to_sympy(terms) -> sympy.Expr:
    """A sympy expression summed from (monomial, coefficient) pairs as given."""
    return sympy.Add(*(rational(c) * sympy.Mul(*(SYMBOLS[name] ** e for name, e in mono.exps))
                       for mono, c in terms))


def sympy_terms(expr: sympy.Expr) -> dict[Monomial, Fraction]:
    """The nonzero terms of expr, read off sympy's own expansion."""
    return {Monomial(dict(zip(NAMES, exps))): Fraction(int(c.p), int(c.q))
            for exps, c in sympy.Poly(expr, *SYMBOLS.values()).terms() if c != 0}


@st.composite
def repeated_terms(draw):
    """Pairs over a pool of three monomials, so like terms repeat; some pairs
    come back negated, so sums cancel."""
    pool = [Monomial({name: draw(st.integers(0, 2)) for name in NAMES}) for _ in range(3)]
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), fractions), max_size=8))
    return pairs + [(mono, -c) for mono, c in pairs if draw(st.booleans())]


@settings(max_examples=200, deadline=None)
@given(repeated_terms(), polynomials(), polynomials(), fractions, st.integers(0, 3),
       st.dictionaries(st.sampled_from(NAMES), fractions))
def test_arithmetic_matches_sympy(pairs, p, q, c, exponent, bindings):
    P, Q = to_sympy(p.terms.items()), to_sympy(q.terms.items())
    constant, C = Polynomial.constant(c), rational(c)
    cases = [
        (Polynomial(pairs), to_sympy(pairs)),
        (p + q, P + Q),
        (p - q, P - Q),
        (p * q, P * Q),
        (p * c, P * C),
        (c * p, C * P),
        (p * constant, P * C),
        (constant * p, C * P),
        (p ** exponent, P ** exponent),
        (p.substitute(bindings), P.subs({SYMBOLS[name]: rational(v) for name, v in bindings.items()})),
        (p.substitute(dict.fromkeys(NAMES, c)), P.subs(dict.fromkeys(SYMBOLS.values(), C))),
    ]
    for got, expected in cases:
        assert got.terms == sympy_terms(expected)


# --- the integer zero-correlation test against the Fraction loop it replaces -

def reference_is_umvue(m: CategoricalModel, g: Statistic) -> UmvueVerdict:
    """is_umvue as a plain Fraction loop: g*chi for each basis vector chi, a
    dense product with C, and the residual as the expectation E(g*chi)."""
    rows = coefficient_matrix(m)[1].rows
    for chi in zero_mean_space(m):
        product = g.pointwise_mul(chi)
        if any(sum((a * x for a, x in zip(row, product.values)), Fraction(0)) for row in rows):
            return UmvueVerdict(False, witness=chi, residual=reference_expectation(m, product))
    return UmvueVerdict(True)


def reference_expectation(m: CategoricalModel, g: Statistic) -> Polynomial:
    """expectation as the fold sum_k g(k) * p_k of the cell polynomials."""
    return Polynomial.sum(p * value for value, p in zip(g.values, m.pmf))


def corpus_cases():
    for name, (_, keys) in CORPUS.items():
        for size in (1, 2, 5, 12):
            yield corpus_model(name, dict.fromkeys(keys, size))
            if not keys:
                break
    yield paper_power(2)
    yield paper_power(3)


def random_cases(count: int, seed: int):
    rng = random.Random(seed)
    for s in range(count):
        yield random_model(s, n=rng.randint(2, 30), max_degree=rng.randint(1, 3), n_params=rng.randint(1, 2))


def umvue_statistics(rng: random.Random, m: CategoricalModel):
    """Random, block-constant and large-denominator statistics, and
    block-constant ones raised at one non-pivot cell k: those fail exactly
    against the basis vectors that are nonzero at k, so at the last free
    cell they fail only against the last one."""
    partition = mve_partition(m)
    yield random_statistic(rng, m.n)
    yield Statistic(tuple(Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**25)) for _ in range(m.n)))
    block_constant = block_constant_statistic(rng, partition)
    yield block_constant
    yield Statistic(tuple(Fraction(10**40 * x.numerator + 1, 10**22 * x.denominator + 7)
                          for x in block_constant.values))
    free = [k for k in range(m.n) if k not in m.structure.pivots]
    for k in free[-1:] + rng.sample(free, min(2, len(free))):
        values = list(block_constant.values)
        values[k] += Fraction(rng.randint(1, 10**12), rng.randint(1, 10**12))
        yield Statistic(tuple(values))


def test_is_umvue_matches_the_fraction_loop():
    rng = random.Random(2)
    failures = 0
    for m in [*corpus_cases(), *random_cases(200, 13)]:
        for g in umvue_statistics(rng, m):
            verdict = is_umvue(m, g)
            assert verdict == reference_is_umvue(m, g)
            failures += not verdict
    assert failures > 200  # the witness and residual paths are covered too


# --- minimal sufficiency in one pass against the pairwise loop ----------------

def reference_minimal_sufficient_partition(m: CategoricalModel) -> Partition:
    """Each cell joins the first block whose first cell it is a positive
    multiple of."""
    def proportional(p: Polynomial, q: Polynomial) -> bool:
        if p.is_zero() or q.is_zero() or set(p.terms) != set(q.terms):
            return False
        lead = q.monomials()[0]
        c = p.coefficient(lead) / q.coefficient(lead)
        return c > 0 and p == q * c

    blocks: list[list[int]] = []
    for k in range(m.n):
        for block in blocks:
            if proportional(m.pmf[k], m.pmf[block[0]]):
                block.append(k)
                break
        else:
            blocks.append([k])
    return Partition(blocks)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(polynomials(max_terms=3), st.sampled_from([0, 1, 2, -1, Fraction(1, 3), Fraction(-7, 2)])),
                min_size=1, max_size=8))
def test_minimal_sufficient_partition_matches_the_pairwise_loop(scaled):
    # multiples of a few polynomials, with zero, negative and repeated cells
    cells = [p * c for p, c in scaled] + [p for p, _ in scaled]
    m = CategoricalModel([str(k) for k in range(len(cells))], cells, NAMES, {name: (0, 1) for name in NAMES})
    assert minimal_sufficient_partition(m) == reference_minimal_sufficient_partition(m)


def test_minimal_sufficient_partition_matches_on_models():
    for m in [*corpus_cases(), *random_cases(300, 14)]:
        assert minimal_sufficient_partition(m) == reference_minimal_sufficient_partition(m)


# --- the table built from the cell terms against the dense construction ------

def reference_coefficient_matrix(m: CategoricalModel) -> tuple[list[Monomial], Matrix]:
    """C as dense rows of coordinate vectors, each column scaled to integers
    afterwards by the dense Matrix constructor."""
    monos: set[Monomial] = set()
    for p in m.pmf:
        monos.update(p.terms)
    basis = sorted(monos, key=Monomial.sort_key)
    columns = [coeff_vector(p, basis) for p in m.pmf]
    return basis, Matrix(zip(*columns), ncols=m.n)


def reference_primitive_partition(m: CategoricalModel) -> Partition:
    """Cells keyed by their primitive integer terms, monomial by monomial."""
    blocks: dict[object, list[int]] = {}
    for k, p in enumerate(m.pmf):
        scale = lcm(*(c.denominator for c in p.terms.values()))
        terms = [(mono, int(c * scale)) for mono, c in p.terms.items()]
        divisor = gcd(*(c for _, c in terms))
        key = frozenset((mono, c // divisor) for mono, c in terms) if terms else k
        blocks.setdefault(key, []).append(k)
    return Partition(blocks.values())


def check_table(m: CategoricalModel) -> None:
    basis, c = coefficient_matrix(m)
    reference_basis, reference = reference_coefficient_matrix(m)
    assert basis == reference_basis
    assert c == reference and hash(c) == hash(reference)
    assert (c.nrows, c.ncols) == (reference.nrows, reference.ncols)
    assert c.rows == reference.rows and c.columns() == reference.columns()
    assert minimal_sufficient_partition(m) == reference_primitive_partition(m)


ALL_ZERO = CategoricalModel(["a", "b"], [Polynomial.zero()] * 2, ["theta"], {"theta": (0, 1)})


def test_the_table_matches_the_dense_construction_on_models():
    for m in [*corpus_cases(), *random_cases(300, 26), ALL_ZERO]:
        check_table(m)
    assert coefficient_matrix(ALL_ZERO)[1].nrows == 0


@settings(max_examples=300, deadline=None)
@given(models())
def test_the_table_matches_the_dense_construction(m):
    # zero cells, undeclared parameters, negative multiples and unnormalized models
    check_table(m)


# --- span questions over the kept pivot vectors against second eliminations --

def reference_solve_in_span(columns, target) -> list[Fraction] | None:
    """Eliminate the columns with the target appended and read the target
    column's relation over the pivots; None if the target is a pivot."""
    n = len(columns)
    reduced = rref(Matrix(zip(*columns, target), ncols=n + 1))
    if n in reduced.pivots:
        return None
    coeffs = [Fraction(0)] * n
    *expansion, (_, xn) = reduced.relations[-1]
    for c, x in expansion:
        coeffs[c] = Fraction(-x, xn)
    return coeffs


def reference_umvue_for(m: CategoricalModel, target: Polynomial) -> EstimateResult:
    """umvue_for by solving among the block sums and, when that fails, among
    C's pivot columns, each by an elimination of its own."""
    basis = m.coefficients[0]
    try:
        t = coeff_vector(target, basis)
    except MissingMonomial:
        return EstimateResult(Estimability.NOT_ESTIMABLE)
    partition = mve_partition(m)
    sums = [Polynomial.sum(m.pmf[k] for k in block) for block in partition.blocks]
    coeffs = reference_solve_in_span([coeff_vector(pi, basis) for pi in sums], t)
    if coeffs is None:
        columns = coefficient_matrix(m)[1].columns()
        if reference_solve_in_span([columns[j] for j in m.structure.pivots], t) is None:
            return EstimateResult(Estimability.NOT_ESTIMABLE)
        return EstimateResult(Estimability.NO_UMVUE)
    values = [Fraction(0)] * m.n
    for c, block in zip(coeffs, partition.blocks):
        for k in block:
            values[k] = c
    return EstimateResult(Estimability.OK, Statistic(tuple(values)), tuple(coeffs))


def estimation_targets(rng: random.Random, m: CategoricalModel):
    """Combinations of the block sums (ok), of the cells (often no UMVUE),
    basis monomials (outside C's column space when rank < basis size) and
    a monomial no cell has."""
    basis = m.coefficients[0]
    yield Polynomial.sum(p * random_fraction(rng) for p in umvue_functionals(m))
    yield Polynomial.sum(p * random_fraction(rng) for p in m.pmf)
    yield Polynomial({basis[rng.randrange(len(basis))]: Fraction(1)})
    yield Polynomial({mono: random_fraction(rng) for mono in basis})
    yield m.pmf[0] + Polynomial({Monomial({"zz": 1}): Fraction(1)})


def test_umvue_for_and_expectation_match_the_second_eliminations():
    rng = random.Random(22)
    statuses = set()
    for m in [*corpus_cases(), *random_cases(300, 15)]:
        for target in estimation_targets(rng, m):
            got = umvue_for(m, target)
            assert got == reference_umvue_for(m, target)  # status, statistic and coefficients
            outside = got.status is Estimability.NOT_ESTIMABLE and set(target.terms) <= set(m.coefficients[0])
            statuses.add("outside the column space" if outside else got.status)
        for g in (random_statistic(rng, m.n), Statistic.constant(1, m.n)):
            assert expectation(m, g) == reference_expectation(m, g)
    assert statuses == {*Estimability, "outside the column space"}
