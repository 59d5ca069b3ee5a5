"""Running one request from outside the library, and reducing what it
produced to a digest that is compared with the recorded reference."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time


def digest(output) -> str:
    text = json.dumps(output, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def canonical_model(umvue, path) -> list:
    """A model file as loaded, so that build outputs compare as models and
    not as bytes (key order or layout of the JSON may change)."""
    m = umvue.load_model(path)
    return [
        list(m.support),
        list(m.parameters),
        sorted([name, str(lo), str(hi)] for name, (lo, hi) in m.domain.items()),
        [umvue.format_poly(p) for p in m.pmf],
    ]


def run_cli(cli_main, argv: list[str]) -> tuple[float, int, str]:
    """`umvue <argv>` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return time.perf_counter() - start, code, out.getvalue()


def run_session(umvue, path, statistics, targets) -> tuple[float, list]:
    """One library session: load, analyze, is_umvue per statistic,
    umvue_for per target. Every result is built inside the timed region."""
    start = time.perf_counter()
    m = umvue.load_model(path)
    report = umvue.analyze_model(m)
    verdicts = [umvue.is_umvue(m, g) for g in statistics]
    estimates = [umvue.umvue_for(m, t) for t in targets]
    elapsed = time.perf_counter() - start
    return elapsed, [
        report.to_dict(),
        [bool(v) for v in verdicts],
        [[e.status.value,
          None if e.statistic is None else [str(x) for x in e.statistic.values],
          None if e.coefficients is None else [str(c) for c in e.coefficients]]
         for e in estimates],
    ]


def execute(umvue, cli_main, request) -> tuple[float, list]:
    """Latency in seconds and the output to compare with the reference."""
    if request.argv is not None:
        elapsed, code, stdout = run_cli(cli_main, request.argv)
        return elapsed, [code, stdout]
    return run_session(umvue, *request.session)


def complete(umvue, request, output: list) -> list:
    """Add what a build request wrote, read back as a model (untimed)."""
    if request.output is None:
        return output
    return output + [canonical_model(umvue, request.output) if output[0] == 0 else None]
