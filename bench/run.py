"""The umvue benchmark: one-shot CLI and library-session latency.

    python3 bench/run.py --workload elim-1p --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55

A single-process, single-thread, closed-loop benchmark with one client: each
request is sent when the previous one has returned. Requests call the
public functions of the `umvue` package in ./src from outside:

- a CLI request is `umvue.cli.main(argv)` with stdout captured; it reloads
  and re-validates its model file, as a real invocation does, and no
  (command, model) pair repeats within the process;
- a session is `load_model`, `analyze_model`, `is_umvue` on 20 statistics
  (12 random, 8 block-constant) and `umvue_for` on 4 targets.

Every output is compared with the reference recorded in bench/data; a
request that raises, exits with another code or prints other output
counts as failed. Inputs come from the workload's fixed universe and the
seed (workloads.py). Rounds run until --seconds have passed; the round in
progress is always completed, so every run has the same request mix.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-module split: a traced pass over the rounds that fit in
half the time, then an untraced replay of the same requests for the
tracing overhead. Run details (environment, per-request latencies with
model size descriptors, per-kind layer split, spans) go to
.bench_out/<workload>-s<seed>-t<trace>-<pid>/result.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import execute
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = Path(__file__).resolve().parent / "data"

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples a tail percentile must have beyond it

PER_LAYER = [
    # (metric, layer, field, unit)
    ("linalg.rref.calls", "linalg.rref", "calls", "count"),
    ("linalg.rref.self_s", "linalg.rref", "self_s", "s"),
    ("linalg.rref.per_model", "linalg.rref", "per_model", "count"),
    ("linalg.rref.max_rows", "linalg.rref", "max_rows", "count"),
    ("linalg.rref.max_cols", "linalg.rref", "max_cols", "count"),
    ("linalg.rref.max_bits", "linalg.rref", "max_bits", "bits"),
    ("linalg.null_space.calls", "linalg.null_space", "calls", "count"),
    ("linalg.solve_in_span.calls", "linalg.solve_in_span", "calls", "count"),
    ("linalg.mul_vector.calls", "linalg.mul_vector", "calls", "count"),
    ("linalg.mul_vector.self_s", "linalg.mul_vector", "self_s", "s"),
    ("analysis.is_umvue.calls", "analysis.is_umvue", "calls", "count"),
    ("analysis.is_umvue.self_s", "analysis.is_umvue", "self_s", "s"),
    ("analysis.zero_mean_space.calls", "analysis.zero_mean_space", "calls", "count"),
    ("analysis.zero_mean_space.self_s", "analysis.zero_mean_space", "self_s", "s"),
    ("model.validate_model.calls", "model.validate_model", "calls", "count"),
    ("model.validate_model.self_s", "model.validate_model", "self_s", "s"),
    ("model.validate_model.points", "model.validate_model.points", "calls", "count"),
    ("expr.parse_poly.calls", "expr.parse_poly", "calls", "count"),
    ("expr.parse_poly.self_s", "expr.parse_poly", "self_s", "s"),
    ("model.load_model.self_s", "model.load_model", "self_s", "s"),
    ("expr.format_poly.self_s", "expr.format_poly", "self_s", "s"),
    ("report.analyze_model.self_s", "report.analyze_model", "self_s", "s"),
    ("report.render.self_s", "report.render", "self_s", "s"),
    ("analysis.umvue_for.self_s", "analysis.umvue_for", "self_s", "s"),
    ("analysis.umvue_functionals.self_s", "analysis.umvue_functionals", "self_s", "s"),
    ("analysis.minimal_sufficient_partition.self_s", "analysis.minimal_sufficient_partition",
     "self_s", "s"),
    ("analysis.is_complete.self_s", "analysis.is_complete", "self_s", "s"),
    ("model.coefficient_matrix.calls", "model.coefficient_matrix", "calls", "count"),
    ("model.coefficient_matrix.self_s", "model.coefficient_matrix", "self_s", "s"),
    ("matroid.mve_partition.calls", "matroid.mve_partition", "calls", "count"),
    ("matroid.mve_partition.self_s", "matroid.mve_partition", "self_s", "s"),
    ("matroid.fundamental_circuit_graph.self_s", "matroid.fundamental_circuit_graph",
     "self_s", "s"),
    ("combine.product_model.self_s", "combine.product_model", "self_s", "s"),
    ("combine.slice_model.self_s", "combine.slice_model", "self_s", "s"),
    ("corpus.self_s", "corpus", "self_s", "s"),
    ("poly.evaluate.calls", "poly.evaluate", "calls", "count"),
    ("poly.mul.calls", "poly.mul", "calls", "count"),
]


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or reference data)."""


# --- statistics ------------------------------------------------------------

def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks of sorted values."""
    xs = sorted(values)
    pos = p / 100 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_level(count: int) -> float:
    """The highest whole percentile with TAIL_BEYOND of `count` samples
    beyond it; the median when there are too few for any tail."""
    return float(max(50, math.floor(100 * (1 - TAIL_BEYOND / count))))


# --- environment -----------------------------------------------------------

def environment(workload: str, seed: int, trace: int) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "umvue").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


# --- the run ---------------------------------------------------------------

def load_universe(workload: str) -> list[list[dict]]:
    path = DATA / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"missing reference data {path}")
    rounds = json.loads(path.read_text(encoding="utf-8"))["rounds"]
    recipes = [[unit["recipe"] for unit in units] for units in rounds]
    if recipes != workloads.universe(workload):
        raise BenchError(f"{path} does not match the universe in workloads.py; re-record it")
    return rounds


def import_umvue():
    """Import umvue afresh from ./src (set-up is timed more than once)."""
    if not (SRC / "umvue" / "__init__.py").is_file():
        raise BenchError(f"no umvue sources under {SRC}")
    for name in [n for n in sys.modules if n == "umvue" or n.startswith("umvue.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import umvue
    import umvue.cli

    if Path(umvue.__file__).resolve().parent != (SRC / "umvue").resolve():
        raise BenchError(f"imported umvue from {umvue.__file__}, not from {SRC}")
    return umvue, umvue.cli.main


class Run:
    def __init__(self, workload: str, seed: int, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.rounds = load_universe(workload)
        self.models_dir = out_dir / "models"
        self.umvue = self.cli_main = None
        self.first = None  # round 0, prepared during set-up
        self.records: list[list] = []   # [request id, kind, model, ms, ok, pass]
        self.failures: list[dict] = []
        self.sizes: dict[str, dict] = {}

    def prepare(self, index: int) -> list:
        """Write one round's model files and build its requests (untimed)."""
        units = self.rounds[index]
        by_id = {u["recipe"]["id"]: u for u in units}
        prepared = []
        for recipe in workloads.unit_order(self.workload, self.seed, index,
                                           [u["recipe"] for u in units]):
            stored = by_id[recipe["id"]]
            requests = workloads.materialize(self.umvue, self.workload, recipe,
                                             stored["meta"], self.models_dir, self.seed)
            for key, meta in stored["meta"].items():
                self.sizes[key] = meta["size"]
            prepared.append((requests, stored["ref"]))
        return prepared

    def setup(self) -> list[float]:
        """Import umvue and write the first round's inputs, several times."""
        times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.models_dir, ignore_errors=True)
            start = time.perf_counter()
            self.umvue, self.cli_main = import_umvue()
            self.first = self.prepare(0)
            times.append(time.perf_counter() - start)
        return times

    def send(self, request, ref: dict, label: str, tracer=None) -> float:
        """One request: time it, check its output, record it."""
        ok = False
        elapsed = 0.0
        try:
            if tracer is not None:
                tracer.begin(request.id, request.kind)
            try:
                elapsed, output = execute.execute(self.umvue, self.cli_main, request)
            finally:
                if tracer is not None:
                    tracer.end()
            output = execute.complete(self.umvue, request, output)
            ok = execute.digest(output) == ref.get(request.id)
            if not ok:
                self.failures.append({"request": request.id, "pass": label,
                                      "reason": "output differs from reference",
                                      "output": output})
        except Exception:  # a failed request is counted, and the run goes on
            self.failures.append({"request": request.id, "pass": label,
                                  "reason": traceback.format_exc()})
        self.records.append([request.id, request.kind, request.model,
                             round(elapsed * 1000, 6), ok, label])
        return elapsed

    def run_rounds(self, label: str, tracer=None, seconds: float | None = None,
                   count: int | None = None) -> tuple[int, float]:
        """Send rounds in order until `seconds` have passed or `count` rounds
        are done; the round in progress is always completed. Returns the
        number of rounds done and the summed request seconds."""
        busy = 0.0
        start = time.perf_counter()
        done = 0
        while done < len(self.rounds) and done != count:
            if seconds is not None and time.perf_counter() - start >= seconds:
                break
            if done == 0 and self.first is not None:
                prepared, self.first = self.first, None
            elif tracer is None:
                prepared = self.prepare(done)
            else:
                tracer.begin(f"round{done}", "setup")
                try:
                    prepared = self.prepare(done)
                finally:
                    tracer.end()
            gc.collect()
            for requests, ref in prepared:
                for request in requests:
                    busy += self.send(request, ref, label, tracer)
            done += 1
        return done, busy


def latency_metrics(records: list[list], levels: dict[str, float]) -> tuple[dict, dict]:
    metrics, detail = {}, {}
    for kind in workloads.KINDS:
        values = [r[3] for r in records if r[1] == kind]
        if not values:
            raise BenchError(f"no {kind} request completed")
        tail = percentile(values, levels[kind])
        metrics[f"{kind}_ms.p50"] = (percentile(values, 50), "ms")
        metrics[f"{kind}_ms.tail"] = (tail, "ms")
        detail[kind] = {"samples": len(values), "tail_percentile": levels[kind],
                        "beyond_tail": sum(v > tail for v in values)}
    return metrics, detail


def layer_metrics(tracer: tracing.Tracer, model_requests: int, overhead: float) -> dict:
    kinds = list(workloads.KINDS)
    out = {}
    for name, layer, field, unit in PER_LAYER:
        which = ["setup"] if layer == "corpus" else kinds
        calls, self_s = tracer.total(layer, which)
        if field == "calls":
            value = calls
        elif field == "self_s":
            value = self_s
        elif field == "per_model":
            value = calls / model_requests
        else:
            value = tracer.rref[field]
        out[name] = (value, unit)
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def bench(workload: str, seed: int, seconds: float, trace: int) -> int:
    out_dir = ROOT / ".bench_out" / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    run = Run(workload, seed, out_dir)
    setup_times = run.setup()
    # The reference data and other harness state stay alive for the whole
    # run; keep the collector from rescanning them inside timed requests.
    gc.collect()
    gc.freeze()
    result = {"env": environment(workload, seed, trace), "setup_s": setup_times}

    if not trace:
        per_round = Counter(r.kind for requests, _ in run.first for r in requests)
        levels = {kind: tail_level(per_round[kind] * workloads.MIN_ROUNDS[workload])
                  for kind in workloads.KINDS}
        start = time.perf_counter()
        done, busy = run.run_rounds("timed", seconds=seconds)
        result["wall_s"] = time.perf_counter() - start
        metrics, result["latency"] = latency_metrics(run.records, levels)
        metrics["requests_per_s"] = (len(run.records) / busy, "1/s")
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    else:
        tracer = tracing.Tracer()
        run.first = None  # re-generate round 0 under tracing, for corpus.self_s
        restore = tracing.install(tracer)
        try:
            done, traced = run.run_rounds("traced", tracer, seconds=seconds / 2)
        finally:
            restore()
        _, untraced = run.run_rounds("replay", count=done)
        model_requests = sum(1 for r in run.records if r[5] == "traced" and r[1] != "build")
        metrics = layer_metrics(tracer, model_requests, traced / untraced)
        result["layers_by_kind"] = tracer.by_kind()
        result["requests_traced"] = tracer.requests
        result["spans"] = tracer.spans
    result["rounds"] = done
    result["requests"] = run.records
    result["sizes"] = run.sizes
    result["failures"] = run.failures
    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    shutil.rmtree(run.models_dir, ignore_errors=True)
    (out_dir / "result.json").write_text(json.dumps(result, default=str) + "\n", encoding="utf-8")

    failed = len(run.failures)
    attempted = len(run.records)
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    print(f"{'failed_ratio':48s} {failed / attempted:14.6f} ratio  "
          f"({failed} of {attempted} requests)")
    for kind, layers in result.get("layers_by_kind", {}).items():
        top = ", ".join(f"{layer} {seconds:.3f} s" for layer, seconds in list(layers.items())[:3])
        print(f"largest self time, {kind}: {top}")
    for failure in run.failures[:5]:
        print(f"failed: {failure['request']} ({failure['pass']}): "
              f"{failure['reason'].splitlines()[-1]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


def bench_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for workload in workloads.WHY:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description="umvue benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WHY, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            return bench_all(args.seed, args.seconds, args.trace)
        return bench(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
