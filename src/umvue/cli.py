"""Command-line interface.

Exit codes: 0 success, 1 mathematically negative verdict (a statistic that
is not a UMVUE, a target without one), 2 input or usage errors. All errors
go to stderr with an "error:" prefix.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .analysis import Estimability, expectation, is_umvue, umvue_for
from .combine import product_model, slice_model
from .corpus import CORPUS, corpus_model, corpus_names
from .errors import UmvueError
from .expr import format_poly, parse_poly
from .model import (
    CategoricalModel,
    Statistic,
    load_model,
    model_to_json,
    require_valid,
)
from .poly import as_fraction
from .report import analyze_model, render_text

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


@cache  # built once per process: eight subparsers cost about a millisecond per main() call
def _build_parser() -> _Parser:
    parser = _Parser(prog="umvue", description="Exact UMVUE structure analysis for finite categorical models.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full analysis report for a model file")
    analyze.add_argument("model", help="model JSON file")
    analyze.add_argument("--json", action="store_true", help="emit the report as JSON")

    verify = sub.add_parser("verify", help="check whether a statistic is a UMVUE")
    verify.add_argument("model", help="model JSON file")
    verify.add_argument("--statistic", required=True,
                        help="comma-separated rationals aligned with the support")

    estimate = sub.add_parser("estimate", help="UMVUE of a parametric function, if any")
    estimate.add_argument("model", help="model JSON file")
    estimate.add_argument("--target", required=True, help="polynomial expression")

    prod = sub.add_parser("product", help="independent product of two models")
    prod.add_argument("model1")
    prod.add_argument("model2")
    prod.add_argument("-o", "--output", help="output file (default: stdout)")

    sli = sub.add_parser("slice", help="fix parameters at interior values")
    sli.add_argument("model")
    sli.add_argument("--bind", action="append", default=[], metavar="NAME=VALUE",
                     help="parameter binding, e.g. --bind theta=1/3 (repeatable)")
    sli.add_argument("-o", "--output", help="output file (default: stdout)")

    corpus = sub.add_parser("corpus", help="built-in models")
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_sub.add_parser("list", help="list corpus model names")
    emit = corpus_sub.add_parser("emit", help="emit a corpus model as JSON")
    emit.add_argument("name")
    emit.add_argument("--param", action="append", default=[], metavar="KEY=INT",
                      help="corpus parameter, e.g. --param n=2 (repeatable)")
    emit.add_argument("-o", "--output", help="output file (default: stdout)")

    return parser


def _load(path: str) -> CategoricalModel:
    try:
        model = load_model(path)
    except OSError as exc:
        raise UmvueError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return require_valid(model)


def _parse_statistic(text: str, n: int) -> Statistic:
    parts = [piece.strip() for piece in text.split(",")]
    try:
        values = [as_fraction(piece) for piece in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise UmvueError(f"bad statistic value: {exc}") from exc
    if len(values) != n:
        raise UmvueError(f"statistic has {len(values)} values, model has {n} cells")
    return Statistic(tuple(values))


def _parse_pairs(pairs: list[str], convert, what: str) -> dict:
    """Repeated NAME=VALUE options, each value read by `convert`."""
    out = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep or not name.strip():
            raise UmvueError(f"bad {what} {pair!r}; expected NAME=VALUE")
        try:
            out[name.strip()] = convert(raw.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise UmvueError(f"bad {what} value in {pair!r}: {exc}") from exc
    return out


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    model = _load(args.model)
    report = analyze_model(model)
    sys.stdout.write(report.to_json() if args.json else render_text(report))
    return EXIT_OK


def _cmd_verify(args) -> int:
    model = _load(args.model)
    g = _parse_statistic(args.statistic, model.n)
    verdict = is_umvue(model, g)
    print(f"statistic: {g}")
    print(f"estimand: {format_poly(expectation(model, g))}")
    if verdict:
        print("umvue: yes")
        return EXIT_OK
    print("umvue: no")
    print(f"witness: {verdict.witness}")
    print(f"residual: {format_poly(verdict.residual)}")
    return EXIT_NEGATIVE


def _cmd_estimate(args) -> int:
    model = _load(args.model)
    target = parse_poly(args.target, model.parameters)
    result = umvue_for(model, target)
    print(f"target: {format_poly(target)}")
    if result.status is Estimability.NOT_ESTIMABLE:
        print("verdict: NotEstimable (target is outside the span of the cell probabilities)")
        return EXIT_NEGATIVE
    if result.status is Estimability.NO_UMVUE:
        print("verdict: NoUmvue (target is estimable but admits no UMVUE)")
        return EXIT_NEGATIVE
    print(f"umvue: {result.statistic}")
    return EXIT_OK


def _cmd_product(args) -> int:
    combined = product_model(_load(args.model1), _load(args.model2))
    _write(model_to_json(combined), args.output)
    return EXIT_OK


def _cmd_slice(args) -> int:
    model = _load(args.model)
    bindings = _parse_pairs(args.bind, as_fraction, "binding")
    if not bindings:
        raise UmvueError("slice needs at least one --bind NAME=VALUE")
    sliced = slice_model(model, bindings)
    _write(model_to_json(sliced), args.output)
    return EXIT_OK


def _cmd_corpus(args) -> int:
    if args.corpus_command == "list":
        for name in corpus_names():
            wanted = CORPUS[name][1]
            suffix = "".join(f"  (--param {key}=INT)" for key in wanted)
            print(f"{name}{suffix}")
        return EXIT_OK
    model = corpus_model(args.name, _parse_pairs(args.param, int, "corpus parameter"))
    _write(model_to_json(model), args.output)
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "estimate": _cmd_estimate,
    "product": _cmd_product,
    "slice": _cmd_slice,
    "corpus": _cmd_corpus,
}


def run_command(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UmvueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main(argv: list[str] | None = None) -> int:
    try:
        return run_command(argv)
    except SystemExit as exc:  # argparse error/help paths
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
