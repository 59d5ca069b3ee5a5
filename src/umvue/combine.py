"""Model combinators: independent products, parameter renaming, slicing."""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Mapping

from .errors import UmvueError
from .model import CategoricalModel, Partition, require_valid
from .poly import Monomial, Polynomial, RationalLike, as_fraction

PRODUCT_LABEL_SEP = "⊗"  # the tensor sign, e.g. "1⊗0"


class ParameterCollision(UmvueError):
    def __init__(self, names):
        super().__init__(f"parameter names shared by both factors: {', '.join(sorted(names))}")


class OutOfDomain(UmvueError):
    pass


class NoFreeParameters(UmvueError):
    pass


def product_model(m1: CategoricalModel, m2: CategoricalModel) -> CategoricalModel:
    """Independent product: support pairs row-major, cell (k,l) = p_k * q_l.

    Parameter names must be disjoint; use rename_parameters on collision.
    The product is normalized by construction since (sum p)(sum q) = 1.
    """
    shared = set(m1.parameters) & set(m2.parameters)
    if shared:
        raise ParameterCollision(shared)
    support = [
        f"{a}{PRODUCT_LABEL_SEP}{b}" for a in m1.support for b in m2.support
    ]
    pmf = [p * q for p in m1.pmf for q in m2.pmf]
    domain = dict(m1.domain)
    domain.update(m2.domain)
    return CategoricalModel(
        support=support,
        pmf=pmf,
        parameters=m1.parameters + m2.parameters,
        domain=domain,
    )


def product_partition(p1: Partition, p2: Partition) -> Partition:
    """Blocks I_a x J_b under the row-major product index (k, l) -> k*n2 + l."""
    n2 = p2.n
    blocks = [
        [k * n2 + l for k in a for l in b]
        for a in p1.blocks
        for b in p2.blocks
    ]
    return Partition(blocks)


def rename_parameters(m: CategoricalModel, mapping: Mapping[str, str]) -> CategoricalModel:
    """Rename parameters structurally (pmf monomials, declaration, domain)."""
    new_names = [mapping.get(name, name) for name in m.parameters]
    if len(set(new_names)) != len(new_names):
        raise ParameterCollision({n for n in new_names if new_names.count(n) > 1})

    def rename_poly(p: Polynomial) -> Polynomial:
        return Polynomial({
            Monomial({mapping.get(name, name): e for name, e in mono.exps}): coeff
            for mono, coeff in p.terms.items()
        })

    return CategoricalModel(
        support=m.support,
        pmf=[rename_poly(p) for p in m.pmf],
        parameters=new_names,
        domain={mapping.get(name, name): m.domain[name] for name in m.parameters},
    )


def _short(x: Fraction) -> str:
    """x as text, a long numeral cut to its ends and length, so an error line stays short."""
    try:
        text = str(x)
    except ValueError:  # past the interpreter's int-to-string limit
        return f"a number of over {sys.get_int_max_str_digits()} digits"
    return text if len(text) <= 40 else f"{text[:20]}...{text[-10:]} ({len(text)} characters)"


def slice_model(m: CategoricalModel, bindings: Mapping[str, RationalLike]) -> CategoricalModel:
    """Fix some parameters at interior points; re-validate the result.

    Substitution can in principle kill a cell or break positivity, so the
    sliced model goes through full validation rather than being trusted.
    """
    values = {name: as_fraction(v) for name, v in bindings.items()}
    for name, value in values.items():
        if name not in m.domain:
            raise OutOfDomain(f"{name} is not a parameter of the model")
        lo, hi = m.domain[name]
        if not lo < value < hi:
            raise OutOfDomain(f"{name}={_short(value)} is not strictly inside ({_short(lo)}, {_short(hi)})")
    remaining = [name for name in m.parameters if name not in values]
    if not remaining:
        raise NoFreeParameters("at least one parameter must remain free")
    sliced = CategoricalModel(
        support=m.support,
        pmf=[p.substitute(values) for p in m.pmf],
        parameters=remaining,
        domain={name: m.domain[name] for name in remaining},
    )
    return require_valid(sliced)
