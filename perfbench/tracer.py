"""Outside-in tracer for the entrolen modules.

The tracer replaces public functions and methods of ``entrolen`` with
timing wrappers, at every module binding that holds them: ``from .x import
f`` copies ``f`` into the importing module, so each copy is patched.  Two
kinds of wrappers exist:

* span wrappers record one span per call (name, start, end, parent, job);
* leaf wrappers, for the hot calls (``Echelon.add``, ``act``, ``translate``
  and the like, about 10^5 calls per pass), add a call count, their time
  and a few counters to the enclosing span instead of opening a span.

A leaf never calls another wrapped function, so the self time of a span is
its duration minus the durations of its child spans and of the leaf calls
made directly inside it.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


class Span:
    __slots__ = ("name", "job", "start", "end", "parent", "child_s", "leaves", "counts")

    def __init__(self, name, job, parent):
        self.name = name
        self.job = job
        self.parent = parent
        self.start = perf_counter()
        self.end = None
        self.child_s = 0.0
        self.leaves = {}  # leaf name -> [calls, seconds, counter...]
        self.counts = {}

    @property
    def self_s(self):
        return self.end - self.start - self.child_s - sum(v[1] for v in self.leaves.values())

    def record(self, index):
        return {
            "id": index,
            "name": self.name,
            "job": self.job,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "self_s": self.self_s,
            "leaves": {k: {"calls": v[0], "s": v[1], "counts": v[2:]} for k, v in self.leaves.items()},
            "counts": self.counts,
        }


# Leaf counters beyond calls and seconds, as (names, extractor).  The
# extractor sees the call's arguments and result and returns increments.
def _echelon_add_counts(args, result):
    if result is None:
        return (0, 0, 0)
    ech, vec = args[0], args[1]
    return (1, len(vec), len(ech.rows[result]))


def _act_counts(args, result):
    return (0 if getattr(args[2], "is_plain", True) else 1,)


def _set_product_counts(args, result):
    return (len(args[0]) * len(args[1]),)


LEAF_COUNTERS = {
    "exact_linalg.echelon_add": (("useful", "offered_nnz", "stored_nnz"), _echelon_add_counts),
    "crossed_product.act": (("twisted",), _act_counts),
    "groups.set_product": (("pairs",), _set_product_counts),
}


def _quotient_split_counts(result):
    return {"growth_steps": result.steps, "stabilized": int(result.stabilized)}


def _windows_counts(result):
    rows = getattr(result, "rows", None)
    return {"windows": len(rows if rows is not None else result.windows)}


SPAN_COUNTERS = {
    "shift_modules.quotient_split": _quotient_split_counts,
    "entropy.estimate": _windows_counts,
    "entropy.estimate_quotient": _windows_counts,
    "entropy.addition_check": _windows_counts,
}

# (metric name, module, attribute path, kind).  The module is the layer the
# function belongs to; bindings in other modules are found by identity.
TARGETS = (
    ("cli.main", "cli", "main", "span"),
    ("entropy.estimate", "entropy", "estimate", "span"),
    ("entropy.estimate_quotient", "entropy", "estimate_quotient", "span"),
    ("entropy.addition_check", "entropy", "addition_check", "span"),
    ("entropy.zero_divisor_scan", "entropy", "zero_divisor_scan", "span"),
    ("entropy.certified_upper_bound", "entropy", "certified_upper_bound", "span"),
    ("shift_modules.trajectory_echelon", "shift_modules", "trajectory_echelon", "span"),
    ("shift_modules.quotient_split", "shift_modules", "_quotient_split", "span"),
    ("crossed_product.act", "crossed_product", "act", "leaf"),
    ("crossed_product.multiply", "crossed_product", "multiply", "leaf"),
    ("crossed_product.find_annihilator", "crossed_product", "find_annihilator", "span"),
    ("crossed_product.validate_cocycle", "crossed_product", "validate_cocycle", "span"),
    ("exact_linalg.echelon_add", "exact_linalg", "Echelon.add", "leaf"),
    ("exact_linalg.echelon_reduce", "exact_linalg", "Echelon.reduce", "leaf"),
    ("exact_linalg.rref", "exact_linalg", "Echelon.rref", "leaf"),
    ("exact_linalg.intersect", "exact_linalg", "intersect", "span"),
    ("groups.set_product", "groups", "set_product", "leaf"),
    ("groups.translate", "groups", "translate", "leaf"),
    ("groups.ball", "groups", "ball", "leaf"),
    ("folner.set_at", "folner", "Boxes.set_at", "span"),
    ("folner.set_at", "folner", "BoxTimesZ2.set_at", "span"),
    ("folner.set_at", "folner", "WordBalls.set_at", "span"),
    ("folner.interior", "folner", "interior", "span"),
    ("folner.boundary", "folner", "boundary", "span"),
    ("tiling.greedy_quasi_tile", "tiling", "greedy_quasi_tile", "span"),
    ("tiling.check_quasi_tiling", "tiling", "check_quasi_tiling", "span"),
    ("tiling.check_epsilon_disjoint", "tiling", "check_epsilon_disjoint", "span"),
)

MODULES = ("cli", "entropy", "shift_modules", "exact_linalg", "crossed_product",
           "groups", "folner", "tiling")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.errors: dict = {}  # job -> module -> escaped exceptions
        self._last_exc = None
        self._last_exc_modules: set = set()
        self._patches: list = []

    # ------------------------------------------------------------ patching

    def install(self):
        if self._patches:
            return
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "entrolen" or name.startswith("entrolen.")}
        for metric, module, path, kind in TARGETS:
            owner = sys.modules[f"entrolen.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[attr]
                self._patch(cls, attr, fn, self._wrap(metric, module, kind, fn))
                continue
            fn = getattr(owner, path)
            wrapper = self._wrap(metric, module, kind, fn)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, fn, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, metric, module, kind, fn):
        if kind == "leaf":
            return self._leaf(metric, module, fn)
        return self._span(metric, module, fn)

    # ------------------------------------------------------------ recording

    def _error(self, module, exc):
        """Count an exception once per module it escapes from."""
        if exc is not self._last_exc:
            self._last_exc = exc
            self._last_exc_modules = set()
        if module not in self._last_exc_modules:
            self._last_exc_modules.add(module)
            job = self.spans[self.stack[-1]].job
            self.errors.setdefault(job, {}).setdefault(module, 0)
            self.errors[job][module] += 1

    def open(self, name, job):
        """Open a span by hand (the harness's job root)."""
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, job, parent))
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index):
        span = self.spans[index]
        span.end = perf_counter()
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start

    def _span(self, metric, module, fn):
        tracer = self
        counter = SPAN_COUNTERS.get(metric)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(metric, tracer.spans[tracer.stack[-1]].job)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._error(module, exc)
                raise
            finally:
                tracer.close(index)
            if counter is not None:
                tracer.spans[index].counts = counter(result)
            return result

        return wrapper

    def _leaf(self, metric, module, fn):
        tracer = self
        names, counter = LEAF_COUNTERS.get(metric, ((), None))
        width = 2 + len(names)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._error(module, exc)
                raise
            finally:
                dt = perf_counter() - t0
                leaves = tracer.spans[tracer.stack[-1]].leaves
                agg = leaves.get(metric)
                if agg is None:
                    agg = leaves[metric] = [0] * width
                agg[0] += 1
                agg[1] += dt
            if counter is not None:
                for i, inc in enumerate(counter(args, result), start=2):
                    agg[i] += inc
            return result

        return wrapper

    # ------------------------------------------------------------ output

    def dump(self, path, info):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"info": info}) + "\n")
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.record(i)) + "\n")


# ---------------------------------------------------------------- metrics


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, errors):
    """Per-layer metrics of a set of spans, as name -> (value, unit).

    Every name is present even when its layer was not called, so each
    traced run reports the same metric set on every workload."""
    calls: dict = {}
    self_s: dict = {}
    leaf_counts: dict = {}
    span_counts: dict = {}
    for name in dict.fromkeys(t[0] for t in TARGETS):
        calls[name] = 0
        self_s[name] = 0.0
    calls["harness.job"] = 0
    self_s["harness.job"] = 0.0
    for span in spans:
        calls[span.name] += 1
        self_s[span.name] += span.self_s
        for key, value in span.counts.items():
            span_counts[key] = span_counts.get(key, 0) + value
        for name, agg in span.leaves.items():
            calls[name] += agg[0]
            self_s[name] += agg[1]
            sums = leaf_counts.setdefault(name, [0] * (len(agg) - 2))
            for i, value in enumerate(agg[2:]):
                sums[i] += value

    out = {}
    for name in calls:
        if name != "harness.job":
            out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")

    add = "exact_linalg.echelon_add"
    useful, offered, stored = leaf_counts.get(add, (0, 0, 0))
    out[f"{add}.rows_per_s"] = (_ratio(calls[add], self_s[add]), "1/s")
    out[f"{add}.useful_share"] = (_ratio(useful, calls[add]), "share")
    out[f"{add}.fill_ratio"] = (_ratio(stored, offered), "ratio")
    act = "crossed_product.act"
    (twisted,) = leaf_counts.get(act, (0,))
    out[f"{act}.twisted_share"] = (_ratio(twisted, calls[act]), "share")
    split = "shift_modules.quotient_split"
    out[f"{split}.growth_steps"] = (span_counts.get("growth_steps", 0), "count")
    out[f"{split}.stabilized_share"] = (
        _ratio(span_counts.get("stabilized", 0), calls[split]), "share")
    (pairs,) = leaf_counts.get("groups.set_product", (0,))
    out["groups.set_product.pairs"] = (pairs, "count")
    out["entropy.windows"] = (span_counts.get("windows", 0), "count")
    for module in MODULES:
        out[f"{module}.errors"] = (errors.get(module, 0), "count")
    return out
