"""Analysis reports: one JSON/text summary per model.

Partitions are serialized in canonical order and polynomials in canonical
term order, so identical models produce byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .analysis import (
    is_complete,
    minimal_sufficient_partition,
    umvue_functionals,
)
from .errors import UmvueError
from .expr import format_poly, number_text
from .matroid import mve_partition
from .model import CategoricalModel


@dataclass(frozen=True)
class AnalysisReport:
    cells: int
    parameters: tuple[str, ...]
    domain: tuple[tuple[str, str, str], ...]  # (name, lo, hi) as rational strings
    support: tuple[str, ...]
    pmf: tuple[str, ...]
    mve_partition: tuple[tuple[str, ...], ...]  # blocks by support label
    zero_mean_basis: tuple[tuple[str, ...], ...]
    umvue_functionals: tuple[str, ...]
    minimal_sufficient_partition: tuple[tuple[str, ...], ...]
    is_minimal_sufficient_complete: bool
    is_mve_equal_minimal_sufficient: bool

    def to_dict(self) -> dict:
        return {
            "model": {
                "cells": self.cells,
                "parameters": list(self.parameters),
                "domain": {name: [lo, hi] for name, lo, hi in self.domain},
                "support": list(self.support),
                "pmf": list(self.pmf),
            },
            "mve_partition": [list(b) for b in self.mve_partition],
            "zero_mean_basis": [list(v) for v in self.zero_mean_basis],
            "umvue_functionals": list(self.umvue_functionals),
            "minimal_sufficient_partition": [list(b) for b in self.minimal_sufficient_partition],
            "is_minimal_sufficient_complete": self.is_minimal_sufficient_complete,
            "is_mve_equal_minimal_sufficient": self.is_mve_equal_minimal_sufficient,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisReport":
        try:
            model = data["model"]
            return cls(
                cells=int(model["cells"]),
                parameters=tuple(model["parameters"]),
                domain=tuple(
                    (name, lo, hi) for name, (lo, hi) in model["domain"].items()
                ),
                support=tuple(model["support"]),
                pmf=tuple(model["pmf"]),
                mve_partition=tuple(tuple(b) for b in data["mve_partition"]),
                zero_mean_basis=tuple(tuple(v) for v in data["zero_mean_basis"]),
                umvue_functionals=tuple(data["umvue_functionals"]),
                minimal_sufficient_partition=tuple(
                    tuple(b) for b in data["minimal_sufficient_partition"]
                ),
                is_minimal_sufficient_complete=bool(data["is_minimal_sufficient_complete"]),
                is_mve_equal_minimal_sufficient=bool(data["is_mve_equal_minimal_sufficient"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise UmvueError(f"bad report JSON: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        return cls.from_dict(json.loads(text))


def analyze_model(m: CategoricalModel) -> AnalysisReport:
    """Run the full analysis pipeline on a (valid) model."""
    mve = mve_partition(m)
    ms = minimal_sufficient_partition(m)
    return AnalysisReport(
        cells=m.n,
        parameters=m.parameters,
        domain=tuple((name, str(lo), str(hi)) for name, (lo, hi) in m.domain.items()),
        support=m.support,
        pmf=tuple(format_poly(p) for p in m.pmf),
        mve_partition=tuple(tuple(b) for b in mve.labelled(m.support)),
        zero_mean_basis=tuple(_dense_text(chi, m.n) for chi in m.structure.kernel),
        umvue_functionals=tuple(format_poly(pi) for pi in umvue_functionals(m)),
        minimal_sufficient_partition=tuple(tuple(b) for b in ms.labelled(m.support)),
        is_minimal_sufficient_complete=is_complete(m, ms),
        is_mve_equal_minimal_sufficient=mve == ms,
    )


def _dense_text(pairs: list[tuple[int, Fraction]], n: int) -> tuple[str, ...]:
    # a kernel vector is its nonzero (cell, entry) pairs: print only those
    row = ["0"] * n
    for k, x in pairs:
        row[k] = number_text(x)
    return tuple(row)


def render_text(report: AnalysisReport) -> str:
    lines = [f"cells: {report.cells}"]
    if report.domain:
        domain = ", ".join(f"{name} in [{lo}, {hi}]" for name, lo, hi in report.domain)
        lines.append(f"parameters: {domain}")
    else:
        lines.append("parameters: none")
    lines.append("support: " + " ".join(report.support))
    lines.append("pmf:")
    for label, expr in zip(report.support, report.pmf):
        lines.append(f"  p[{label}] = {expr}")
    lines.append("mve partition: " + _blocks(report.mve_partition))
    if report.zero_mean_basis:
        lines.append("zero-mean basis:")
        for vec in report.zero_mean_basis:
            lines.append("  (" + ", ".join(vec) + ")")
    else:
        lines.append("zero-mean basis: trivial (complete family)")
    lines.append("umvue functionals:")
    for j, expr in enumerate(report.umvue_functionals, start=1):
        lines.append(f"  pi[{j}] = {expr}")
    lines.append("minimal sufficient partition: " + _blocks(report.minimal_sufficient_partition))
    lines.append(
        "minimal sufficient complete: "
        + ("yes" if report.is_minimal_sufficient_complete else "no")
    )
    lines.append(
        "mve equals minimal sufficient: "
        + ("yes" if report.is_mve_equal_minimal_sufficient else "no")
    )
    return "\n".join(lines) + "\n"


def _blocks(blocks: tuple[tuple[str, ...], ...]) -> str:
    return " ".join("{" + ", ".join(b) + "}" for b in blocks)
