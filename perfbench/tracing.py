"""Spans around the calls into grasym's layers, installed from outside.

Each wrapper records (name, start, end, parent, op, exception type) in memory
and is patched into every grasym module namespace that bound the original,
so calls made inside the library (``invariants`` calling ``structured_det``,
``algebras`` calling ``validate_algebra``) are caught too.  Per-scalar hot
paths (``Scalar`` arithmetic, ``mul_coords``) are left alone; micro.py times
those.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Wrapped entry points as "module.attribute"; a dotted attribute is a method,
# patched on its class.  Grouped by the per-layer metrics each one reports.
CALLS_AND_SELF = (
    "algebras.crossed_product", "algebras.validate_algebra",
    "multipoly.MultiPoly.__mul__", "multipoly.structured_det", "multipoly.pencil_det",
    "multipoly.nonvanishing_point",
    "invariants.is_graded_division", "invariants.component_has_invertible",
    "linalg.Matrix.rref",
    "symmetry.decide_form_existence", "symmetry.graded_trace_space", "symmetry.gram_pencil",
    "symmetry.gram_matrix", "symmetry.verify_certificate",
    "specfile.algebra_from_dict", "specfile.certificate_to_dict", "specfile.algebra_hash",
)
CALLS_ONLY = ("algebras.Element.inverse", "linalg.Matrix.solve")
SELF_ONLY = (
    "replicate.hunt_counterexample", "invariants.graded_commutator_space",
    "invariants.commutator_subspace", "invariants.center",
)

# every per-layer metric a traced pass reports: (name, unit, better)
METRICS = tuple(
    [(f"{n}.calls", "count", "lower") for n in CALLS_AND_SELF + CALLS_ONLY]
    + [(f"{n}.self_s", "s", "lower") for n in CALLS_AND_SELF + SELF_ONLY]
    + [
        ("algebras.crossed_product.reject_ratio", "1", "lower"),
        ("replicate.accept_ratio", "1", "higher"),
        ("replicate.candidates_per_s", "1/s", "higher"),
        ("multipoly.det_terms", "count", "lower"),
        ("multipoly.det_zero_ratio", "1", "lower"),
        ("invariants.scan_size", "count", "lower"),
        ("symmetry.trace_space_dim_sum", "count", "lower"),
        ("trace.overhead_ratio", "1", "lower"),
    ]
)

TARGETS = CALLS_AND_SELF + CALLS_ONLY + SELF_ONLY

NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    """In-memory spans of one process; record only while ``active``."""

    def __init__(self):
        self.spans = []
        self.results = {}  # span index -> small summary of the returned value
        self.active = False
        self.op = None
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, summarize=None):
        """fn with a span recorded around each call made while active."""
        spans, stack, results = self.spans, self._stack, self.results
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, tracer.op, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if summarize is not None:
                results[index] = summarize(result)
            return result
        return wrapper

    def install(self):
        """Patch a wrapper over every target; uninstall() puts the originals back."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "grasym" or n.startswith("grasym.")]
        for name in TARGETS:
            module_name, *path, leaf = name.split(".")
            owner = importlib.import_module(f"grasym.{module_name}")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if path else getattr(owner, leaf)
            wrapper = self.wrap(name, original, SUMMARIES.get(name))
            if path:
                self._patch(owner, leaf, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def self_times_ns(self) -> list:
        """Duration of each span minus the time covered by its child spans."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_metrics(self) -> dict:
        """The per-layer metrics of METRICS, except trace.overhead_ratio."""
        calls, self_ns, total_ns, errors = {}, {}, {}, {}
        for s, own in zip(self.spans, self.self_times_ns()):
            n = s[NAME]
            calls[n] = calls.get(n, 0) + 1
            self_ns[n] = self_ns.get(n, 0) + own
            total_ns[n] = total_ns.get(n, 0) + s[END] - s[START]
            if s[ERROR] is not None:
                errors[n] = errors.get(n, 0) + 1
        summaries = {}
        for index, value in self.results.items():
            summaries.setdefault(self.spans[index][NAME], []).append(value)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for n in CALLS_AND_SELF + CALLS_ONLY:
            out[f"{n}.calls"] = calls.get(n, 0)
        for n in CALLS_AND_SELF + SELF_ONLY:
            out[f"{n}.self_s"] = self_ns.get(n, 0) / 1e9
        cp = "algebras.crossed_product"
        out[f"{cp}.reject_ratio"] = ratio(errors.get(cp, 0), calls.get(cp, 0))
        hunts = summaries.get("replicate.hunt_counterexample", [])
        enumerated = sum(e for e, _ in hunts)
        out["replicate.accept_ratio"] = ratio(sum(t for _, t in hunts), enumerated)
        out["replicate.candidates_per_s"] = ratio(
            enumerated, total_ns.get("replicate.hunt_counterexample", 0) / 1e9)
        dets = summaries.get("multipoly.structured_det", [])
        out["multipoly.det_terms"] = sum(dets)
        out["multipoly.det_zero_ratio"] = ratio(sum(1 for t in dets if t == 0), len(dets))
        out["invariants.scan_size"] = sum(summaries.get("invariants.is_graded_division", []))
        out["symmetry.trace_space_dim_sum"] = sum(summaries.get("symmetry.graded_trace_space", []))
        return out

    def dump(self, path):
        """Write the spans as JSON: a name table and one row per span."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[NAME]], s[START], s[END], s[PARENT], s[OP], s[ERROR]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start_ns", "end_ns", "parent", "op", "error"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))


def _scan_size(verdict) -> int:
    ident = verdict.certificate.get("identity_component", {})
    return ident.get("scan_size", 0) if isinstance(ident, dict) else 0


SUMMARIES = {
    "replicate.hunt_counterexample":
        lambda r: (r.candidates_enumerated, r.instances_tested),
    "multipoly.structured_det": lambda det: len(det.terms),
    "invariants.is_graded_division": _scan_size,
    "symmetry.graded_trace_space": lambda space: space.dim,
}
