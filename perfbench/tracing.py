"""Spans and counters around mocklie's public functions, installed from outside.

``Tracer.install`` replaces each traced function in every mocklie namespace
that binds it (``mocklie.matched`` imports ``check_prejj_bimodule``,
``mocklie.cli`` imports the doubles, and the package re-exports most of
them), plus a few methods on ``LinearMap`` and the field classes that only
count calls.  ``uninstall`` puts every original back.  Nothing records while
``recording`` is false, so set-up and output checks leave no trace.

A span is ``[name, start, end, parent, op]`` with ``parent`` the index of
the enclosing span (-1 at top level) and ``op`` the id of the benchmark op
that caused it.  A span's self time is its duration minus the time covered
by its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# Functions that get a span, by module.
SPANNED = {
    "classify": ("enumerate_solutions", "classify", "find_isomorphism"),
    "algebra": ("apply_basis_change", "check_identity", "passes_identity"),
    "reps": ("check_prejj_bimodule", "check_jj_rep"),
    "matched": ("check_prejj_matched_pair", "check_jj_matched_pair"),
    "doubles": ("assemble_prejj_double", "assemble_jj_double",
                "check_invariance", "conformance_diff"),
    "cli": ("main",),
}

# Functions that are only counted: they run too often for a span each, and
# classify's self time is meant to include orbit closure.
COUNTED = {"classify": ("transport_tuple",)}

FIELD_OPS = ("add", "sub", "neg", "mul", "inv")

# Per-layer metric names, in the order of BENCHMARK.json.
PER_LAYER = (
    "classify.enumerate_solutions.calls",
    "classify.enumerate_solutions.self_s",
    "classify.solution_ratio",
    "classify.classify.self_s",
    "classify.transport_tuple.calls",
    "classify.find_isomorphism.calls",
    "classify.find_isomorphism.self_s",
    "algebra.apply_basis_change.calls",
    "algebra.apply_basis_change.self_s",
    "algebra.check_identity.calls",
    "algebra.check_identity.self_s",
    "algebra.passes_identity.calls",
    "algebra.passes_identity.self_s",
    "reps.check_prejj_bimodule.calls",
    "reps.check_prejj_bimodule.self_s",
    "reps.check_prejj_bimodule.pass_ratio",
    "reps.check_jj_rep.calls",
    "reps.check_jj_rep.self_s",
    "matched.check_prejj_matched_pair.calls",
    "matched.check_prejj_matched_pair.self_s",
    "matched.check_jj_matched_pair.calls",
    "matched.check_jj_matched_pair.self_s",
    "matched.precondition_errors",
    "linalg.LinearMap.new",
    "linalg.LinearMap.mul.calls",
    "fields.ops",
    "doubles.assemble_prejj_double.self_s",
    "doubles.assemble_jj_double.self_s",
    "doubles.check_invariance.self_s",
    "doubles.conformance_diff.self_s",
    "formats.load.self_s",
    "formats.dump.self_s",
    "cli.main.calls",
    "cli.main.self_s",
    "trace.overhead_ratio",
)


def _mocklie_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "mocklie" or name.startswith("mocklie."))]


def _formats_group(name):
    """Span name of a public ``mocklie.formats`` function, or None."""
    if name.endswith("_from_json"):
        return "formats.load"
    if name.endswith("_to_json") or name == "dumps":
        return "formats.dump"
    return None


class Tracer:
    def __init__(self):
        self.recording = False
        self.op = -1
        self.spans = []
        self._child = []     # time covered by direct children, per span
        self._stack = []
        self.counts = {}
        self.bimodules_passed = 0
        self.precondition_errors = 0
        self.solutions = 0
        self.searched = 0
        self._patches = []   # (owner, attribute, original)

    # -- recording

    def begin_op(self, op_id):
        self.op = op_id
        self.recording = True

    def end_op(self):
        self.recording = False

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._child.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index):
        span = self.spans[index]
        span[2] = perf_counter()
        self._stack.pop()
        if span[3] >= 0:
            self._child[span[3]] += span[2] - span[1]

    def _note(self, name, result):
        if name == "reps.check_prejj_bimodule":
            self.bimodules_passed += result.passed
        elif name == "classify.classify":
            self.solutions += result.total
            meta = result.metadata
            self.searched += meta.get("visited", meta["scanned"])

    # -- wrappers

    def _spanning(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(index)
                if name.startswith("matched.") and isinstance(exc, tracer.precondition_error):
                    tracer.precondition_errors += 1
                raise
            tracer._close(index)
            tracer._note(name, result)
            return result

        return wrapper

    def _counting(self, name, fn):
        tracer = self
        self.counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.recording:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, fn, replacement):
        for mod in _mocklie_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {name: sys.modules[f"mocklie.{name}"]
                   for name in ("classify", "algebra", "reps", "matched", "doubles",
                                "cli", "formats", "linalg", "fields", "errors")}
        self.precondition_error = modules["errors"].PreconditionError
        targets = []
        for mod_name, names in SPANNED.items():
            for fn_name in names:
                targets.append((f"{mod_name}.{fn_name}", getattr(modules[mod_name], fn_name)))
        fmt = modules["formats"]
        for fn_name, fn in sorted(vars(fmt).items()):
            group = _formats_group(fn_name)
            if group and callable(fn) and getattr(fn, "__module__", "") == fmt.__name__:
                targets.append((group, fn))
        for name, fn in targets:
            self._patch_everywhere(fn, self._spanning(name, fn))
        for mod_name, names in COUNTED.items():
            for fn_name in names:
                fn = getattr(modules[mod_name], fn_name)
                self._patch_everywhere(fn, self._counting(f"{mod_name}.{fn_name}.calls", fn))
        linear_map = modules["linalg"].LinearMap
        self._patch(linear_map, "__post_init__",
                    self._counting("linalg.LinearMap.new", linear_map.__post_init__))
        self._patch(linear_map, "mul",
                    self._counting("linalg.LinearMap.mul.calls", linear_map.mul))
        fields = modules["fields"]
        for cls in (fields.PrimeField, fields.RationalField):
            for op in FIELD_OPS:
                self._patch(cls, op, self._counting(f"fields.{cls.__name__}.{op}",
                                                    getattr(cls, op)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results

    def aggregate(self):
        """{span name: (calls, self seconds)}."""
        out = {}
        for (name, start, end, _, _), child in zip(self.spans, self._child):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - child)
        return out

    def layer_metrics(self, overhead_ratio):
        agg = self.aggregate()
        spanned = {f"{mod}.{fn}" for mod, fns in SPANNED.items() for fn in fns}
        spanned |= {"formats.load", "formats.dump"}
        values = {}
        for name in PER_LAYER:
            stem, _, stat = name.rpartition(".")
            if stem in spanned:
                calls, self_s = agg.get(stem, (0, 0.0))
                values[name] = calls if stat == "calls" else self_s
        values["classify.transport_tuple.calls"] = self.counts["classify.transport_tuple.calls"]
        values["classify.solution_ratio"] = (
            self.solutions / self.searched if self.searched else 0.0)
        bimodule_calls = values["reps.check_prejj_bimodule.calls"]
        values["reps.check_prejj_bimodule.pass_ratio"] = (
            self.bimodules_passed / bimodule_calls if bimodule_calls else 0.0)
        values["matched.precondition_errors"] = self.precondition_errors
        values["linalg.LinearMap.new"] = self.counts["linalg.LinearMap.new"]
        values["linalg.LinearMap.mul.calls"] = self.counts["linalg.LinearMap.mul.calls"]
        values["fields.ops"] = sum(v for k, v in self.counts.items() if k.startswith("fields."))
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: values[name] for name in PER_LAYER}

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
