"""Built-in named models and the seeded random-model generator."""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import UmvueError
from .expr import MAX_POWER_DEGREE
from .model import CategoricalModel, require_valid, validate_model
from .poly import Monomial, Polynomial

THETA = "theta"
ETA = "eta"

RANDOM_RETRY_LIMIT = 1000


class UnknownName(UmvueError):
    def __init__(self, name: str):
        super().__init__(f"unknown corpus model {name!r}; see 'corpus list'")


class BadParam(UmvueError):
    pass


class GenerationFailed(UmvueError):
    pass


def _theta() -> Polynomial:
    return Polynomial.variable(THETA)


def paper_2_3_model() -> CategoricalModel:
    """Four cells (theta, theta^2, theta+theta^2, 1-2*theta-2*theta^2).

    Its minimal sufficient statistic is trivial yet incomplete, while the
    UMVUE subalgebra is generated by {1,2,3} and {4}: only the span of
    {1, theta + theta^2} admits UMVUEs.
    """
    t = _theta()
    return CategoricalModel(
        support=["1", "2", "3", "4"],
        pmf=[t, t * t, t + t * t, Polynomial.constant(1) - t * 2 - t * t * 2],
        parameters=[THETA],
        domain={THETA: (Fraction(0), Fraction(1, 4))},
    )


def bernoulli_model() -> CategoricalModel:
    t = _theta()
    return CategoricalModel(
        support=["1", "0"],
        pmf=[t, Polynomial.constant(1) - t],
        parameters=[THETA],
        domain={THETA: (Fraction(0), Fraction(1))},
    )


def _check_size(family: str, key: str, value: int, top: int = MAX_POWER_DEGREE) -> None:
    """Sizes whose model file reads back: no power above the parser's bound."""
    if not 1 <= value <= top:
        raise BadParam(f"{family} needs 1 <= {key} <= {top}, got {value}")


def binomial_model(n: int) -> CategoricalModel:
    _check_size("binomial", "n", n)
    pascal = [[1]]  # pascal[m][j] = C(m, j)
    for m in range(n):
        pascal.append([a + b for a, b in zip([0] + pascal[m], pascal[m] + [0])])
    powers = [Monomial({THETA: d}) for d in range(n + 1)]
    # cell k is C(n,k) theta^k (1-theta)^(n-k), written out term by term
    pmf = [Polynomial((powers[k + j], (-1) ** j * pascal[n][k] * c)
                      for j, c in enumerate(pascal[n - k])) for k in range(n + 1)]
    return CategoricalModel(
        support=[str(k) for k in range(n + 1)],
        pmf=pmf,
        parameters=[THETA],
        domain={THETA: (Fraction(0), Fraction(1))},
    )


def constant_model(n: int) -> CategoricalModel:
    """Parameter-free uniform model; useful as a product identity for n=1."""
    _check_size("constant", "n", n)
    return CategoricalModel(
        support=[str(k + 1) for k in range(n)],
        pmf=[Polynomial.constant(Fraction(1, n))] * n,
        parameters=[],
        domain={},
    )


def lehmann_trunc_model(k: int) -> CategoricalModel:
    """Truncation of the classical infinite-support family on {-1, 0, 1, ...}.

    Cells: theta on -1, (1-theta)^2*theta^j for j < k, and the lumped tail
    (1-theta)*theta^k on label "T". Normalization is an exact identity:
    theta + (1-theta)(1-theta^k) + (1-theta)theta^k = 1.
    """
    _check_size("lehmann-trunc", "k", k, MAX_POWER_DEGREE - 1)  # its top degree is k + 1
    powers = [Monomial({THETA: d}) for d in range(k + 2)]
    # written out term by term: theta^j - 2*theta^(j+1) + theta^(j+2), then theta^k - theta^(k+1)
    pmf = [Polynomial(((powers[1], 1),))]
    pmf += [Polynomial(((powers[j], 1), (powers[j + 1], -2), (powers[j + 2], 1))) for j in range(k)]
    pmf.append(Polynomial(((powers[k], 1), (powers[k + 1], -1))))
    return CategoricalModel(
        support=["-1"] + [str(j) for j in range(k)] + ["T"],
        pmf=pmf,
        parameters=[THETA],
        domain={THETA: (Fraction(0), Fraction(1))},
    )


def two_param_demo_model() -> CategoricalModel:
    """Four cells in (theta, eta) with non-trivial slice structure.

    p1 = p2 = (theta + theta^2)/2, p3 = eta*(1 - theta - theta^2),
    p4 = (1 - eta)*(1 - theta - theta^2) on theta in (0, 1/2), eta in (0, 1).
    The full model's maximal MVE partition is {1,2} {3} {4}; every slice at a
    fixed interior eta has {1,2} {3,4}, strictly coarser on the right pair.
    """
    t = _theta()
    e = Polynomial.variable(ETA)
    half_group = (t + t * t) * Fraction(1, 2)
    rest = Polynomial.constant(1) - t - t * t
    return CategoricalModel(
        support=["1", "2", "3", "4"],
        pmf=[half_group, half_group, e * rest, (Polynomial.constant(1) - e) * rest],
        parameters=[THETA, ETA],
        domain={THETA: (Fraction(0), Fraction(1, 2)), ETA: (Fraction(0), Fraction(1))},
    )


CORPUS = {
    "paper-2-3": (paper_2_3_model, ()),
    "bernoulli": (bernoulli_model, ()),
    "binomial": (binomial_model, ("n",)),
    "constant": (constant_model, ("n",)),
    "lehmann-trunc": (lehmann_trunc_model, ("k",)),
    "two-param-demo": (two_param_demo_model, ()),
}


def corpus_names() -> list[str]:
    return list(CORPUS)


def corpus_model(name: str, params: dict[str, int] | None = None) -> CategoricalModel:
    """Instantiate a named corpus model; always returns a valid model."""
    params = dict(params or {})
    if name not in CORPUS:
        raise UnknownName(name)
    builder, wanted = CORPUS[name]
    if set(params) != set(wanted):
        need = " and ".join(wanted) if wanted else "no parameters"
        raise BadParam(f"corpus model {name!r} takes {need}, got {sorted(params) or 'none'}")
    for key, value in params.items():
        if not isinstance(value, int):
            raise BadParam(f"corpus parameter {key} must be an integer")
    return require_valid(builder(*(params[key] for key in wanted)))


def _random_monomial(rng: random.Random, names: list[str], max_degree: int) -> Monomial:
    degree = rng.randint(1, max_degree)
    exps: dict[str, int] = {}
    for _ in range(degree):
        name = rng.choice(names)
        exps[name] = exps.get(name, 0) + 1
    return Monomial(exps)


def _random_positive_poly(rng: random.Random, names: list[str], max_degree: int) -> Polynomial:
    """A nonzero polynomial with positive coefficients (positive on (0,1]^d)."""
    # each term draws its monomial first, then its coefficient: seeded models depend on the order
    return Polynomial([(_random_monomial(rng, names, max_degree),
                        Fraction(rng.randint(1, 4), rng.randint(1, 4)))
                       for _ in range(rng.randint(1, 3))])


def random_model(seed: int, n: int, max_degree: int, n_params: int) -> CategoricalModel:
    """Deterministic random model on the unit box, biased toward dependence.

    The first n-1 cells have positive coefficients; some are planted as
    positive multiples or sums of earlier cells so that non-trivial MVE
    partitions occur with useful frequency. The cells are scaled to total
    coefficient mass 3/4, which keeps the closing cell 1 - sum >= 1/4 on the
    whole box.
    """
    if n < 2:
        raise BadParam(f"random model needs n >= 2, got {n}")
    if max_degree < 1:
        raise BadParam(f"random model needs max_degree >= 1, got {max_degree}")
    if n_params not in (1, 2):
        raise BadParam(f"random model needs n_params in {{1, 2}}, got {n_params}")
    rng = random.Random(seed)
    names = [THETA, ETA][:n_params]

    for _ in range(RANDOM_RETRY_LIMIT):
        cells: list[Polynomial] = []
        for i in range(n - 1):
            kind = rng.random()
            if i >= 1 and kind < 0.20:
                base = cells[rng.randrange(len(cells))]
                cells.append(base * Fraction(rng.randint(1, 3), rng.randint(1, 3)))
            elif i >= 2 and kind < 0.40:
                a, b = rng.sample(range(len(cells)), 2)
                cells.append(cells[a] + cells[b])
            else:
                cells.append(_random_positive_poly(rng, names, max_degree))
        mass = sum((sum(p.terms.values(), Fraction(0)) for p in cells), Fraction(0))
        scale = Fraction(3, 4) / mass
        cells = [p * scale for p in cells]
        closing = Polynomial.constant(1) - Polynomial.sum(cells)
        cells.append(closing)
        candidate = CategoricalModel(
            support=[str(k + 1) for k in range(n)],
            pmf=cells,
            parameters=names,
            domain={name: (Fraction(0), Fraction(1)) for name in names},
        )
        if validate_model(candidate).ok:
            return candidate
    raise GenerationFailed(f"no valid model after {RANDOM_RETRY_LIMIT} attempts (seed {seed})")
