"""In-memory spans at swfair's layer boundaries, for the traced run.

Inside ``with tracer:`` the entry points of each layer are replaced by
timing wrappers, and the originals are put back on leaving; no swfair file
is changed.  Oracle calls are wrapped on the source classes
(``BitPoolSource`` and the generic ``SetFunction`` bulk fallbacks that
``TableSource`` inherits), so the affine views and the per-solve counting
wrappers that delegate to them are not counted twice.  Module-level names
are wrapped where their callers look them up (``swfair.cli.split`` and
``swfair.split.split`` are both the splitter).

Every span adds its duration to its parent, so a layer's self time is its
time minus that of the spans it caused.  Spans are aggregated per name as
they close: calls, total and self seconds.  The exceptions are ``value``
calls made inside a bulk oracle call (the per-subset lookups of the generic
fallbacks): a span each would double the cost of a table sweep, so they are
counted but not timed, and their time stays in the bulk call's.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module, class defining the attribute or None, attribute, span name).
# A name missing from the program is skipped, and its span reads 0.
POINTS = [
    ("swfair.setfn", None, "load_source", "setfn.load"),
    ("swfair.cli", None, "load_source", "setfn.load"),
    ("swfair.setfn", "SetFunction", "prefix_values", "setfn.prefix_values"),
    ("swfair.setfn", "BitPoolSource", "prefix_values", "setfn.prefix_values"),
    ("swfair.setfn", "SetFunction", "all_values", "setfn.all_values"),
    ("swfair.setfn", "BitPoolSource", "all_values", "setfn.all_values"),
    ("swfair.setfn", "BitPoolSource", "value", "setfn.value"),
    ("swfair.setfn", "TableSource", "value", "setfn.value"),
    ("swfair.split", None, "restrict", "setfn.views"),
    ("swfair.split", None, "reduce", "setfn.views"),
    ("swfair.split", None, "add_modular", "setfn.views"),
    ("swfair.split", None, "solve_sfm", "sfm.solve"),
    ("swfair.sfm", None, "_affine_minimizer", "sfm.affine_minimizer"),
    ("swfair.split", None, "split", "split"),
    ("swfair.cli", None, "split", "split"),
    ("swfair.cli", None, "decompose", "split.decompose"),
    ("swfair.cli", None, "shapley_exact", "fairness.shapley_exact"),
    ("swfair.cli", None, "verify_membership", "fairness.verify_membership"),
    ("swfair.cli", None, "build_parser", "cli.build_parser"),
    ("swfair.cli", None, "main", "cli"),
]

SPANS = sorted({name for *_, name in POINTS})
BULK = ("setfn.prefix_values", "setfn.all_values")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()       # sfm solves by solver, oracle evals
        self.trees = []               # every split tree, for recursion_metrics
        self._children = []           # time covered by child spans, per open span
        self._bulk = [0]              # open bulk oracle spans
        self._saved = []

    def _wrap(self, fn, name):
        children, bulk = self._children, self._bulk
        calls, total, self_time = self.calls, self.total, self.self_time
        after = {"sfm.solve": self._after_solve,
                 "split": self._after_split}.get(name)
        nests = name in BULK

        def span(*args, **kwargs):
            bulk[0] += nests
            children.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                bulk[0] -= nests
                covered = children.pop()
                calls[name] += 1
                total[name] += took
                self_time[name] += took - covered
                if children:
                    children[-1] += took
            if after is not None:
                after(out)
            return out

        if name != "setfn.value":
            return span

        def lookup(*args, **kwargs):
            if bulk[0]:
                calls[name] += 1
                return fn(*args, **kwargs)
            return span(*args, **kwargs)

        return lookup

    def _after_solve(self, result):
        self.counts["sfm.solves." + result.solver_used] += 1
        self.counts["setfn.oracle_evals"] += result.oracle_evals

    def _after_split(self, out):
        self.trees.append(out[1])

    def __enter__(self):
        for module, owner, attr, name in POINTS:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner, None)
            if target is None or not hasattr(target, attr):
                continue
            original = getattr(target, attr)
            setattr(target, attr, self._wrap(original, name))
            self._saved.append((target, attr, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def snapshot(self) -> dict:
        """Cumulative self seconds and calls per span name, plus counts."""
        return {
            "self_s": {k: self.self_time[k] for k in SPANS},
            "total_s": {k: self.total[k] for k in SPANS},
            "calls": {k: self.calls[k] for k in SPANS},
            "counts": dict(self.counts),
        }
