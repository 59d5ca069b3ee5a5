"""Per-module tracing from outside the library.

`install` rebinds the public functions of the `umvue` modules to wrappers
that record a span per call. A function imported by name into another
module (`from .linalg import rref`) is a second binding of the same object,
so every `umvue.*` module attribute that is the original is rebound too;
methods are rebound on their class. Spans stay in memory until the run
writes them out. Only calls made while a request (or input generation) is
open are recorded, so checking outputs afterwards does not show up.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# layer name -> (module, attribute) bindings it covers
LAYERS = {
    "linalg.rref": [("linalg", "rref")],
    "linalg.null_space": [("linalg", "null_space")],
    "linalg.solve_in_span": [("linalg", "solve_in_span")],
    "linalg.mul_vector": [("linalg", "Matrix.mul_vector")],
    "analysis.is_umvue": [("analysis", "is_umvue")],
    "analysis.zero_mean_space": [("analysis", "zero_mean_space")],
    "analysis.umvue_for": [("analysis", "umvue_for")],
    "analysis.umvue_functionals": [("analysis", "umvue_functionals")],
    "analysis.minimal_sufficient_partition": [("analysis", "minimal_sufficient_partition")],
    "analysis.is_complete": [("analysis", "is_complete")],
    "model.validate_model": [("model", "validate_model")],
    "model.load_model": [("model", "load_model")],
    "model.coefficient_matrix": [("model", "coefficient_matrix")],
    "expr.parse_poly": [("expr", "parse_poly")],
    "expr.format_poly": [("expr", "format_poly")],
    "report.analyze_model": [("report", "analyze_model")],
    "report.render": [("report", "render_text"), ("report", "AnalysisReport.to_json")],
    "matroid.mve_partition": [("matroid", "mve_partition")],
    "matroid.fundamental_circuit_graph": [("matroid", "fundamental_circuit_graph")],
    "combine.product_model": [("combine", "product_model")],
    "combine.slice_model": [("combine", "slice_model")],
    "corpus": [("corpus", "corpus_model"), ("corpus", "random_model")],
}

# counted, not timed: these run too often for a span each
COUNTERS = {
    "poly.evaluate": [("poly", "Polynomial.evaluate")],
    "poly.mul": [("poly", "Polynomial.__mul__"), ("poly", "Polynomial.__rmul__")],
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []   # open spans: [span index, start, child seconds]
        self.spans: list[list] = []   # [request index, name, start, end, parent index]
        self.requests: list[tuple[str, str]] = []  # (request id, kind)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)  # (kind, layer)
        self.calls: Counter = Counter()   # (kind, layer or counter)
        self.open: Counter = Counter()    # layer -> open spans
        self.rref = {"max_rows": 0, "max_cols": 0, "max_bits": 0}
        self.kind = ""

    def begin(self, request_id: str, kind: str) -> None:
        """Open the root span of one request; layer spans nest under it."""
        self.requests.append((request_id, kind))
        self.kind = kind
        self._open("request")

    def end(self) -> None:
        self._close(perf_counter())

    def _open(self, name: str) -> list:
        index = len(self.spans)
        parent = self.stack[-1][0] if self.stack else -1
        frame = [index, perf_counter(), 0.0]
        self.spans.append([len(self.requests) - 1, name, frame[1], None, parent])
        self.stack.append(frame)
        self.open[name] += 1
        return frame

    def _close(self, end: float) -> float:
        index, start, child = self.stack.pop()
        span = self.spans[index]
        span[3] = end
        name = span[1]
        self.open[name] -= 1
        duration = end - start
        self.self_s[(self.kind, name)] += duration - child
        self.calls[(self.kind, name)] += 1
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    def exclude(self, seconds: float) -> None:
        """Charge tracer bookkeeping to no layer."""
        if self.stack:
            self.stack[-1][2] += seconds

    def span_wrapper(self, name: str, fn, probe=None):
        def wrapper(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            if probe is not None:
                t = perf_counter()
                probe(*args)
                self.exclude(perf_counter() - t)
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(perf_counter())
        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if self.stack:
                self.calls[(self.kind, name)] += 1
                if name == "poly.evaluate" and self.open["model.validate_model"]:
                    self.calls[(self.kind, "model.validate_model.points")] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def probe_rref(self, m, *_) -> None:
        stats = self.rref
        stats["max_rows"] = max(stats["max_rows"], m.nrows)
        stats["max_cols"] = max(stats["max_cols"], m.ncols)
        bits = max((max(x.numerator.bit_length(), x.denominator.bit_length())
                    for row in m.rows for x in row), default=0)
        stats["max_bits"] = max(stats["max_bits"], bits)

    # --- aggregation ---

    def total(self, layer: str, kinds) -> tuple[int, float]:
        calls = sum(self.calls[(k, layer)] for k in kinds)
        return calls, sum(self.self_s[(k, layer)] for k in kinds)

    def by_kind(self) -> dict:
        """Self seconds per layer for each request kind, largest first."""
        out: dict[str, dict[str, float]] = defaultdict(dict)
        for (kind, layer), seconds in sorted(self.self_s.items(), key=lambda kv: -kv[1]):
            out[kind][layer] = round(seconds, 6)
        return dict(out)


def install(tracer: Tracer):
    """Rebind every traced function in the loaded `umvue` modules; return a
    function that restores the originals."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "umvue" or name.startswith("umvue."))]
    undo: list[tuple[object, str, object]] = []

    def rebind(module_name: str, attr: str, make) -> None:
        module = sys.modules[f"umvue.{module_name}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[method]
            undo.append((owner, method, original))
            setattr(owner, method, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    for layer, bindings in LAYERS.items():
        probe = tracer.probe_rref if layer == "linalg.rref" else None
        for module_name, attr in bindings:
            rebind(module_name, attr, lambda fn, l=layer, p=probe: tracer.span_wrapper(l, fn, p))
    for counter, bindings in COUNTERS.items():
        for module_name, attr in bindings:
            rebind(module_name, attr, lambda fn, c=counter: tracer.count_wrapper(c, fn))

    def restore() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore
