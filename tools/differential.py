"""Fingerprint every answer the library gives on a fixed set of models.

Run it with the tree under test first on the path, from this repository
for this tree and, say, `PYTHONPATH=OTHER/src` for another:

    PYTHONPATH=src python3 tools/differential.py

It prints one line per output kind: the number of outputs and a sha256
prefix of their text. Two trees that give the same answers print the same
lines, so running it on a parent and a change checks that the change keeps
every output. The inputs are the corpus at several sizes, paper-2-3 squared
and cubed, 300 seeded random models and invalid models that skip validation
(all-zero, a zero cell, unnormalized); an output that raises is recorded as
its error type and message. Inputs are drawn from seeded generators and
from the answers themselves (block-constant statistics, block-sum targets,
and for is_complete the minimal sufficient partition, that partition with a
block split and a random partition), so the lines depend on nothing but the
tree. The seeded generators it shares with the tests come from
`tests/helpers.py`, which needs sympy.
"""

from __future__ import annotations

import hashlib
import random
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from umvue import (
    CategoricalModel,
    Monomial,
    Partition,
    Polynomial,
    Statistic,
    ZeroColumn,
    analyze_model,
    coefficient_matrix,
    corpus_model,
    expectation,
    format_poly,
    is_complete,
    is_umvue,
    minimal_sufficient_partition,
    mve_partition,
    null_space,
    random_model,
    rref,
    umvue_for,
    validate_model,
    zero_mean_space,
)
from umvue.corpus import CORPUS
from umvue.linalg import solve_in_span

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import (  # noqa: E402
    block_constant_statistic,
    paper_power,
    random_fraction,
    random_partition,
    random_statistic,
    split_first_block,
)

SIZES = {"binomial": [*range(1, 16), 20, 24], "constant": [*range(1, 7)],
         "lehmann-trunc": [*range(1, 16), 20, 24, 30]}
RANDOM_MODELS = 300


def models():
    for name, (_, keys) in CORPUS.items():
        for size in SIZES.get(name, [None]):
            yield corpus_model(name, dict.fromkeys(keys, size) if keys else None)
    yield paper_power(2)
    yield paper_power(3)
    rng = random.Random(27)
    for seed in range(RANDOM_MODELS):
        yield random_model(seed, n=rng.randint(2, 30), max_degree=rng.randint(1, 3), n_params=rng.randint(1, 2))
    t = Polynomial.variable("theta")
    domain = {"theta": (0, 1)}
    yield CategoricalModel("ab", [Polynomial.zero()] * 2, ["theta"], domain)
    yield CategoricalModel("abc", [t, Polynomial.zero(), 1 - t], ["theta"], domain)
    yield CategoricalModel("ab", [t, t], ["theta"], domain)
    yield CategoricalModel("abc", [t, t * t, 1 - t * t], ["theta"], domain)


def partition(m: CategoricalModel) -> Partition:
    try:
        return mve_partition(m)
    except ZeroColumn:  # a zero cell has no MVE partition: draw inputs over singletons
        return Partition.singletons(m.n)


def statistics(rng: random.Random, m: CategoricalModel) -> list[Statistic]:
    g = block_constant_statistic(rng, partition(m))
    raised = Statistic(g.values[:-1] + (g.values[-1] + 1,))
    return [Statistic.constant(1, m.n), random_statistic(rng, m.n), g, raised]


def targets(rng: random.Random, m: CategoricalModel) -> list[Polynomial]:
    """Block-sum combinations (ok), cell combinations (often no UMVUE), a
    basis monomial (outside C's column space when rank < basis size) and a
    monomial no cell has. Unlike the tests' targets these are drawn also on
    invalid models: over singletons when a cell is zero, and with no basis
    monomial when C has no rows."""
    basis = coefficient_matrix(m)[0]
    sums = [Polynomial.sum(m.pmf[k] for k in block) for block in partition(m).blocks]
    found = [Polynomial.constant(1),
             Polynomial.sum(s * random_fraction(rng) for s in sums),
             Polynomial.sum(p * random_fraction(rng) for p in m.pmf),
             m.pmf[0] + Polynomial({Monomial({"zz": 1}): Fraction(1)})]
    if basis:
        found.append(Polynomial({basis[rng.randrange(len(basis))]: Fraction(1)}))
    return found


def show(x) -> str:
    return format_poly(x) if isinstance(x, Polynomial) else str(x)


def pivots_and_relations(c) -> str:
    reduced = rref(c)
    return str((reduced.pivots, reduced.relations))


def verdict(m: CategoricalModel, g: Statistic) -> str:
    v = is_umvue(m, g)
    return f"{v.is_umvue} {v.witness} {show(v.residual)}"


def estimate(m: CategoricalModel, target: Polynomial) -> str:
    r = umvue_for(m, target)
    return f"{r.status.value} {r.statistic} {r.coefficients}"


def answers(m: CategoricalModel, rng: random.Random):
    """(output kind, thunk) pairs for one model; each thunk returns the output as text."""
    c = coefficient_matrix(m)[1]
    yield "pivots and relations", lambda: pivots_and_relations(c)
    yield "validate_model", lambda: str([(i.code, i.detail, i.component, i.point, show(i.residual))
                                         for i in validate_model(m).issues])
    yield "analyze", lambda: analyze_model(m).to_json()
    yield "zero_mean_space", lambda: str([str(s) for s in zero_mean_space(m)])
    yield "null_space", lambda: str(null_space(c))
    columns = c.columns()
    for g in statistics(rng, m):
        yield "is_umvue", lambda g=g: verdict(m, g)
        yield "expectation", lambda g=g: format_poly(expectation(m, g))
        yield "solve_in_span", lambda g=g: str(solve_in_span(columns, c.mul_vector(g.values)))
    if c.nrows:
        unit = [Fraction(0)] * c.nrows
        unit[-1] = Fraction(1)
        yield "solve_in_span", lambda: str(solve_in_span(columns, unit))
    for target in targets(rng, m):
        yield "umvue_for", lambda t=target: estimate(m, t)
    sufficient = minimal_sufficient_partition(m)
    for p in (Partition.one_block(m.n), Partition.singletons(m.n), sufficient, partition(m),
              split_first_block(sufficient), random_partition(rng, m.n)):
        yield "is_complete", lambda p=p: str(is_complete(m, p))


def main() -> None:
    digests: dict[str, list] = defaultdict(lambda: [0, hashlib.sha256()])
    for index, m in enumerate(models()):
        rng = random.Random(index)
        for kind, thunk in answers(m, rng):
            try:
                text = thunk()
            except Exception as exc:  # recorded, so a changed error shows as a changed line
                text = f"{type(exc).__name__}: {exc}"
            entry = digests[kind]
            entry[0] += 1
            entry[1].update(f"{index}\t{text}\n".encode())
    for kind, (count, digest) in sorted(digests.items()):
        print(f"{kind:<22} {count:>6} {digest.hexdigest()[:16]}")


if __name__ == "__main__":
    main()
