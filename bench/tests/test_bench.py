"""Checks of the benchmark itself: deterministic inputs, recorded references
that reproduce, and a sample of outputs against independent oracles.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import execute  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import umvue  # noqa: E402
import umvue.cli  # noqa: E402

WORKDIR = ROOT / ".bench_out" / "tests"


def stored_units(workload: str, count: int, key=None) -> list[dict]:
    """The first `count` units of round 0 (sorted by `key`)."""
    units = run.load_universe(workload)[0]
    return sorted(units, key=key)[:count] if key else units[:count]


def small_units() -> list[tuple[str, dict]]:
    out = [("elim-1p", u) for u in stored_units("elim-1p", 8, key=lambda u: u["recipe"]["size"])]
    out += [("random-session", u) for u in stored_units("random-session", 15)]
    return out


def fresh(name: str) -> Path:
    path = WORKDIR / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def sympy_poly(text: str):
    return sympy.sympify(text.replace("^", "**"), locals={})


def run_units():
    """Every request of the small units, with its output."""
    directory = fresh("oracle")
    for workload, stored in small_units():
        requests = workloads.materialize(umvue, workload, stored["recipe"], stored["meta"],
                                         directory / workload, seed=0)
        for request in requests:
            _, output = execute.execute(umvue, umvue.cli.main, request)
            yield workload, stored, request, execute.complete(umvue, request, output)


@pytest.fixture(scope="module")
def outputs():
    return list(run_units())


def test_same_seed_gives_byte_identical_model_files():
    for workload in workloads.WHY:
        stored = run.load_universe(workload)[0][-1]
        trees = []
        for name in ("a", "b"):
            directory = fresh(f"determinism-{name}")
            requests = workloads.materialize(umvue, workload, stored["recipe"], stored["meta"],
                                         directory, seed=7)
            files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
            argv = [[str(a).replace(str(directory), "") for a in r.argv or []]
                    for r in requests]
            trees.append((files, argv))
        assert trees[0] == trees[1]
        assert trees[0][0], "no model files written"


def test_recipes_match_the_stored_universe():
    for workload in workloads.WHY:
        run.load_universe(workload)  # raises on any difference


def test_references_reproduce(outputs):
    for _, stored, request, output in outputs:
        assert execute.digest(output) == stored["ref"][request.id], request.id


def test_estimates_are_unbiased(outputs):
    """E[statistic] equals the target, checked in sympy from the files."""
    checked = 0
    for _, _, request, output in outputs:
        if request.kind != "estimate" or output[0] != 0:
            continue
        model = json.loads(Path(request.argv[1]).read_text())
        target = request.argv[2].removeprefix("--target=")
        values = re.search(r"^umvue: \((.*)\)$", output[1], re.M).group(1).split(", ")
        mean = sum(sympy.Rational(str(Fraction(v))) * sympy_poly(p)
                   for v, p in zip(values, model["pmf"]))
        assert sympy.expand(mean - sympy_poly(target)) == 0, request.id
        checked += 1
    assert checked >= 5


def _block_constant(values, partition) -> bool:
    return all(len({values[k] for k in block}) == 1 for block in partition)


def test_verify_verdicts_follow_block_constancy(outputs):
    """A statistic is a UMVUE iff it is constant on the recorded partition."""
    seen = set()
    for _, stored, request, output in outputs:
        if request.kind != "verify":
            continue
        values = [Fraction(v) for v in request.argv[2].removeprefix("--statistic=").split(",")]
        expected = _block_constant(values, stored["meta"][request.model]["partition"])
        assert output[0] == (0 if expected else 1), request.id
        seen.add(expected)
    assert seen == {True, False}


def test_session_verdicts_follow_block_constancy(outputs):
    for _, stored, request, output in outputs:
        if request.kind != "session":
            continue
        partition = stored["meta"][request.model]["partition"]
        expected = [_block_constant(g.values, partition) for g in request.session[1]]
        assert output[1] == expected, request.id


def test_tracer_rebinds_names_imported_across_modules():
    tracer = tracing.Tracer()
    original = umvue.linalg.null_space
    restore = tracing.install(tracer)
    try:
        assert umvue.analysis.null_space is not original
        assert umvue.analysis.null_space is umvue.linalg.null_space
        m = umvue.corpus_model("paper-2-3")
        tracer.begin("r", "session")
        umvue.is_umvue(m, umvue.Statistic.of([1, 1, 1, 0]))
        tracer.end()
    finally:
        restore()
    assert umvue.analysis.null_space is original
    assert tracer.calls[("session", "linalg.rref")] >= 1
    assert tracer.calls[("session", "linalg.mul_vector")] >= 1
    assert all(span[3] is not None for span in tracer.spans)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail_level(1000) == 99.0
    assert run.tail_level(90) == 88.0
    assert run.tail_level(36) == 72.0
    assert run.tail_level(12) == 50.0


def test_percentile_interpolates_between_ranks():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90) == pytest.approx(4.6)


def test_refuses_to_run_without_sources():
    directory = fresh("bare")
    shutil.copy(ROOT / "BENCHMARK.json", directory)
    shutil.copytree(BENCH, directory / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "random-session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=directory, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
