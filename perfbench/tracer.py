"""Span tracing of one pass, from outside the program.

`Tracer.install()` wraps the public functions that mark layer boundaries,
replacing each function object in every `wallspan` module namespace that
holds it (so `harness` calling its imported `build_family` is traced as well
as `clifford.build_family`), and wrapping methods on their class.  Spans
(name, start, end, parent) are kept in flat arrays and written out once, at
the end of the pass.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# span name -> (module, attribute) of the wrapped function or method
SPANS = {
    "stream": ("fields", "stream"),
    "sample_point": ("fields", "sample_point"),
    "evaluate_field": ("fields", "evaluate_field"),
    "quasi_invariance_sign": ("fields", "quasi_invariance_sign"),
    "check_well_defined": ("fields", "check_well_defined"),
    "tangency_residuals": ("fields", "tangency_residuals"),
    "tangent_matrix": ("fields", "tangent_matrix"),
    "svd_rank": ("fields", "svd_rank"),
    "build_family": ("clifford", "build_family"),
    "verify_family": ("clifford", "verify_family"),
    "apply": ("clifford", "GaussMatrix.apply"),
    "wall_presentation": ("f2cohomology", "wall_presentation"),
    "total_sw_wall": ("f2cohomology", "total_sw_wall"),
    "rule_out": ("f2cohomology", "VirtualSwSearch.rule_out"),
    "run_case": ("harness", "run_case"),
    "criterion_clifford_exact": ("acceptance", "criterion_clifford_exact"),
    "criterion_rule_out_even": ("acceptance", "criterion_rule_out_even"),
}

# methods that are counted but not timed
COUNTS = {
    "fields.points_built": ("fields", "TotalSpacePoint.__post_init__"),
    "f2cohomology.products": ("f2cohomology", "GradedF2Poly.__mul__"),
}

# per-layer time metric -> [(span name, "self" | "total"), ...]
TIMES = {
    "fields.sampling_ms": [("stream", "total"), ("sample_point", "total")],
    "fields.evaluation_ms": [("evaluate_field", "self")],
    "fields.signs_ms": [("quasi_invariance_sign", "self")],
    "fields.roots_ms": [("check_well_defined", "self")],
    "fields.tangency_ms": [("tangency_residuals", "total")],
    "fields.svd_ms": [("tangent_matrix", "total"), ("svd_rank", "total")],
    "clifford.build_ms": [("build_family", "total")],
    "clifford.verify_ms": [("verify_family", "total")],
    "clifford.apply_ms": [("apply", "total")],
    "f2cohomology.ring_ms": [("wall_presentation", "total")],
    "f2cohomology.sw_class_ms": [("total_sw_wall", "self")],
    "f2cohomology.rule_out_ms": [("rule_out", "self")],
    "harness.case_self_ms": [("run_case", "self")],
    "acceptance.clifford_exact_ms": [("criterion_clifford_exact", "total")],
    "acceptance.rule_out_ms": [("criterion_rule_out_even", "total")],
}

CALLS = {
    "fields.evaluate_calls": "evaluate_field",
    "fields.svd_calls": "svd_rank",
    "clifford.apply_calls": "apply",
    "harness.cases": "run_case",
}


def _resolve(module: str, attr: str):
    owner = sys.modules[f"wallspan.{module}"]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _replace(module: str, attr: str, make) -> None:
    """Swap the function for make(original) wherever the program looks it up."""
    owner, name = _resolve(module, attr)
    original = getattr(owner, name)
    wrapper = functools.wraps(original)(make(original))
    if isinstance(owner, type):
        setattr(owner, name, wrapper)
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "wallspan" or mod_name.startswith("wallspan."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


class Tracer:
    def __init__(self) -> None:
        self.names = list(SPANS)
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counts: Counter[str] = Counter()
        self.verify_by_n: Counter[int] = Counter()
        self._rings_seen: set = set()

    def _span(self, name: str, after=None):
        nid = self.names.index(name)
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self.stack,
        )
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = len(start)
                span_name.append(nid)
                parent.append(stack[-1])
                start.append(0.0)
                end.append(0.0)
                stack.append(idx)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    start[idx] = t0
                    stack.pop()
                if after is not None:
                    after(args, result, end[idx] - t0)
                return result

            return wrapper

        return make

    def _counter(self, metric: str):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[metric] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _after_verify(self, args, report, seconds: float) -> None:
        self.counts["clifford.identities"] += len(report.checks)
        self.verify_by_n[args[0].n] += seconds

    def _after_rule_out(self, args, result, seconds: float) -> None:
        self.counts["f2cohomology.multisets_scanned"] += len(result.witnesses)

    def _ring(self, fn):
        # only the first call per (m, n) builds the ring; later ones are cache hits
        traced = self._span("wall_presentation")(fn)
        seen = self._rings_seen

        def wrapper(m, n):
            if (m, n) in seen:
                return fn(m, n)
            seen.add((m, n))
            return traced(m, n)

        return wrapper

    def install(self) -> None:
        after = {"verify_family": self._after_verify, "rule_out": self._after_rule_out}
        for name, (module, attr) in SPANS.items():
            make = self._ring if name == "wall_presentation" else self._span(name, after.get(name))
            _replace(module, attr, make)
        for metric, (module, attr) in COUNTS.items():
            _replace(module, attr, self._counter(metric))

    def metrics(self, rungs: tuple[int, ...]) -> dict[str, float]:
        """Per-layer times (ms) and counts of everything recorded so far."""
        total = [0.0] * len(self.names)
        child = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        start, end, parent, span_name = self.start, self.end, self.parent, self.span_name
        for idx in range(len(start)):
            dur = end[idx] - start[idx]
            nid = span_name[idx]
            total[nid] += dur
            calls[nid] += 1
            up = parent[idx]
            if up >= 0:
                child[span_name[up]] += dur
        out: dict[str, float] = {}
        for metric, parts in TIMES.items():
            seconds = 0.0
            for name, mode in parts:
                nid = self.names.index(name)
                seconds += total[nid] - (child[nid] if mode == "self" else 0.0)
            out[metric] = seconds * 1e3
        for metric, name in CALLS.items():
            out[metric] = calls[self.names.index(name)]
        for metric in (*COUNTS, "clifford.identities", "f2cohomology.multisets_scanned"):
            out[metric] = self.counts[metric]
        for n in rungs:
            out[f"clifford.verify_ms.n{n}"] = self.verify_by_n[n] * 1e3
        return out

    def dump(self, path) -> None:
        """Write the spans: a header line of span names, then one
        `name start end parent` line per span (times in seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(" ".join(self.names) + "\n")
            for row in zip(self.span_name, self.start, self.end, self.parent):
                fh.write("%d %.9f %.9f %d\n" % row)
