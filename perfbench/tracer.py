"""Span and counter tracing of weyldl's layers, installed from outside the package.

``Tracer.install()`` replaces each target function below with a wrapper at
every place it is reachable: the defining module, every weyldl module that
imported the name, and the class for methods.  Span targets record one span
per call (name, start, end, parent span, verdict id) in memory; counter
targets, which sit on hot paths, only count calls.  ``layer_metrics()``
folds spans and counters into the per-layer metrics of BENCHMARK.json, and
``dump()`` writes the spans out at the end of a traced pass.

A target that no longer exists (for example a function a later change
deletes) is skipped, and the metrics that need it are reported as absent
with value 0; the run does not fail.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager

# (span or counter name, defining module, attribute, kind)
TARGETS = (
    ("conjugacy.partition", "weyldl.conjugacy", "enumerate_delta_classes", "span"),
    ("conjugacy.partition_memo", "weyldl.conjugacy", "partition_memo", "span"),
    ("conjugacy.class_lookup", "weyldl.conjugacy", "class_of", "span"),
    ("conjugacy.closure", "weyldl.conjugacy", "closure_min_check", "span"),
    ("weyl.multiply", "weyldl.weyl", "WeylGroup.multiply", "count"),
    ("weyl.elements", "weyldl.weyl", "WeylGroup.elements", "span"),
    ("weyl.group_init", "weyldl.weyl", "WeylGroup.__init__", "span"),
    ("lp.solve", "weyldl.lp", "solve_strict", "span"),
    ("lp.gordan", "weyldl.lp", "gordan_witness", "span"),
    ("exactnum.quadext", "weyldl.exactnum", "QuadExt.__init__", "count"),
    ("rootdata.build", "weyldl.rootdata", "build_root_system", "span"),
    ("rootdata.twist", "weyldl.rootdata", "build_twist", "span"),
    ("criterion.build_forward", "weyldl.criterion", "build_forward_system", "span"),
    ("criterion.build_inverse", "weyldl.criterion", "build_inverse_system", "span"),
    ("criterion.build_star", "weyldl.criterion", "build_star_system", "span"),
    ("criterion.check", "weyldl.criterion", "check_certificate", "span"),
    ("criterion.certify", "weyldl.criterion", "certify_min_element", "span"),
    ("lifting.constructive", "weyldl.lifting", "constructive_certificate", "span"),
    ("casetables.case", "weyldl.casetables", "verify_case", "span"),
)

CRITERION_BUILDS = ("criterion.build_forward", "criterion.build_inverse", "criterion.build_star")

# Which targets each per-layer metric reads; a metric is absent when any is missing.
METRIC_SOURCES = {
    "conjugacy.partition_calls": ("conjugacy.partition",),
    "conjugacy.partition_s": ("conjugacy.partition",),
    "conjugacy.partition_elements": ("conjugacy.partition",),
    "conjugacy.partition_memo_hit_ratio": ("conjugacy.partition", "conjugacy.partition_memo"),
    "conjugacy.class_lookup_self_s": ("conjugacy.class_lookup",),
    "conjugacy.closure_calls": ("conjugacy.closure",),
    "conjugacy.closure_s": ("conjugacy.closure",),
    "weyl.multiply_calls": ("weyl.multiply",),
    "weyl.elements_enumerated": ("weyl.elements",),
    "weyl.elements_s": ("weyl.elements",),
    "weyl.group_inits": ("weyl.group_init",),
    "weyl.group_init_s": ("weyl.group_init",),
    "lp.solve_calls": ("lp.solve",),
    "lp.solve_s": ("lp.solve",),
    "lp.cells": ("lp.solve",),
    "lp.feasible_ratio": ("lp.solve",),
    "lp.gordan_calls": ("lp.gordan",),
    "lp.gordan_s": ("lp.gordan",),
    "lp.max_bits": ("lp.solve",),
    "exactnum.quadext_created": ("exactnum.quadext",),
    "rootdata.build_calls": ("rootdata.build",),
    "rootdata.busy_s": ("rootdata.build", "rootdata.twist"),
    "criterion.build_calls": CRITERION_BUILDS,
    "criterion.build_s": CRITERION_BUILDS,
    "criterion.check_calls": ("criterion.check",),
    "criterion.check_self_s": ("criterion.check",),
    "criterion.certify_self_s": ("criterion.certify",),
    "lifting.constructive_calls": ("lifting.constructive",),
    "lifting.constructive_self_s": ("lifting.constructive",),
    "casetables.case_self_s": ("casetables.case",),
    "casetables.subchecks_pass": ("casetables.case",),
    "casetables.subchecks_skip": ("casetables.case",),
    "casetables.subchecks_fail": ("casetables.case",),
}


def _bits(values) -> int:
    """Largest numerator or denominator bit length among exact numbers."""
    best = 0
    for x in values or ():
        for part in (getattr(x, "a", None), getattr(x, "b", None)):
            if part is not None:
                best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


class Tracer:
    """Spans and counters for one traced pass; only one may be installed at a time."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, verdict id)
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.verdict = None
        self.suspended = False
        self.stats = {
            "partition_elements": 0, "elements_enumerated": 0, "cells": 0,
            "feasible": 0, "max_bits": 0, "pass": 0, "skip": 0, "fail": 0,
        }
        self._stack: list[int] = []
        self._seen_element_sets: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for name, module_name, attr, kind in TARGETS:
            module = importlib.import_module(module_name)
            owner, _, fname = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, fname, None) if holder is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._counter(name, original) if kind == "count" else self._span(name, original)
            if owner:
                self._patch(holder, fname, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "weyldl" and getattr(mod, fname, None) is original:
                    self._patch(mod, fname, wrapper)

    def uninstall(self) -> None:
        for holder, fname, original in reversed(self._restore):
            setattr(holder, fname, original)
        self._restore.clear()

    def _patch(self, holder, fname, wrapper) -> None:
        self._restore.append((holder, fname, getattr(holder, fname)))
        setattr(holder, fname, wrapper)

    def _counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn):
        on_return = getattr(self, "_on_" + name.replace(".", "_"), None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if self.suspended:
                return fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, name, start, end, parent, self.verdict)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def paused(self):
        """Leave the benchmark's own correctness checks out of the trace."""
        counts = dict(self.counts)
        self.suspended = True
        try:
            yield
        finally:
            self.suspended = False
            for key, before in counts.items():
                self.counts[key] = before

    # -- per-call work counters ---------------------------------------------------

    def _on_conjugacy_partition(self, args, kwargs, classes) -> None:
        self.stats["partition_elements"] += sum(c.size for c in classes)

    def _on_weyl_elements(self, args, kwargs, elements) -> None:
        # A result object not seen before was enumerated by this call.
        if id(elements) not in self._seen_element_sets:
            self._seen_element_sets[id(elements)] = elements
            self.stats["elements_enumerated"] += len(elements)

    def _on_lp_solve(self, args, kwargs, point) -> None:
        rows = args[0] if args else kwargs["rows"]
        nvars = args[1] if len(args) > 1 else kwargs["nvars"]
        self.stats["cells"] += len(rows) * nvars
        if point is not None:
            self.stats["feasible"] += 1
            self.stats["max_bits"] = max(self.stats["max_bits"], _bits(point))

    def _on_lp_gordan(self, args, kwargs, witness) -> None:
        self.stats["max_bits"] = max(self.stats["max_bits"], _bits(witness))

    def _on_casetables_case(self, args, kwargs, report) -> None:
        for status in report.subchecks.values():
            if status == "pass":
                self.stats["pass"] += 1
            elif status.startswith("skipped"):
                self.stats["skip"] += 1
            else:
                self.stats["fail"] += 1

    # -- folding ----------------------------------------------------------------

    def layer_metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metric values and the names of the absent ones."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        child: dict[str, float] = {}
        memo_misses = set()
        for sid, name, start, end, parent, _ in self.spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            if parent is not None:
                pname = self.spans[parent][1]
                child[pname] = child.get(pname, 0.0) + (end - start)
                if name == "conjugacy.partition" and pname == "conjugacy.partition_memo":
                    memo_misses.add(parent)

        def n(name):
            return calls.get(name, 0)

        def s(name):
            return total.get(name, 0.0)

        def self_s(name):
            return s(name) - child.get(name, 0.0)

        st = self.stats
        memo_calls = n("conjugacy.partition_memo")
        values = {
            "conjugacy.partition_calls": n("conjugacy.partition"),
            "conjugacy.partition_s": s("conjugacy.partition"),
            "conjugacy.partition_elements": st["partition_elements"],
            "conjugacy.partition_memo_hit_ratio":
                (memo_calls - len(memo_misses)) / memo_calls if memo_calls else 0.0,
            "conjugacy.class_lookup_self_s": self_s("conjugacy.class_lookup"),
            "conjugacy.closure_calls": n("conjugacy.closure"),
            "conjugacy.closure_s": s("conjugacy.closure"),
            "weyl.multiply_calls": self.counts.get("weyl.multiply", 0),
            "weyl.elements_enumerated": st["elements_enumerated"],
            "weyl.elements_s": s("weyl.elements"),
            "weyl.group_inits": n("weyl.group_init"),
            "weyl.group_init_s": s("weyl.group_init"),
            "lp.solve_calls": n("lp.solve"),
            "lp.solve_s": s("lp.solve"),
            "lp.cells": st["cells"],
            "lp.feasible_ratio": st["feasible"] / n("lp.solve") if n("lp.solve") else 0.0,
            "lp.gordan_calls": n("lp.gordan"),
            "lp.gordan_s": s("lp.gordan"),
            "lp.max_bits": st["max_bits"],
            "exactnum.quadext_created": self.counts.get("exactnum.quadext", 0),
            "rootdata.build_calls": n("rootdata.build"),
            "rootdata.busy_s": s("rootdata.build") + s("rootdata.twist"),
            "criterion.build_calls": sum(n(b) for b in CRITERION_BUILDS),
            "criterion.build_s": sum(s(b) for b in CRITERION_BUILDS),
            "criterion.check_calls": n("criterion.check"),
            "criterion.check_self_s": self_s("criterion.check"),
            "criterion.certify_self_s": self_s("criterion.certify"),
            "lifting.constructive_calls": n("lifting.constructive"),
            "lifting.constructive_self_s": self_s("lifting.constructive"),
            "casetables.case_self_s": self_s("casetables.case"),
            "casetables.subchecks_pass": st["pass"],
            "casetables.subchecks_skip": st["skip"],
            "casetables.subchecks_fail": st["fail"],
        }
        missing = set(self.absent)
        absent = sorted(m for m, src in METRIC_SOURCES.items() if missing & set(src))
        for metric in absent:
            values[metric] = 0
        return values, absent

    def dump(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "verdict")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, span)) for span in self.spans],
                       "counters": self.counts, "absent": self.absent}, fh)
