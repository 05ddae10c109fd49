"""Per-layer tracing from outside the engine.

`Tracer.install()` replaces each traced public function with a wrapper in
every namespace that looks it up: the defining module, each module that
imported it by name (including `holonorm.backend` for the function-local
`from .backend import series_mul`), the package itself, and class
attributes such as `Series.substitute` and `JetMap.compose`.
`uninstall()` puts the originals back. Nothing under src/ changes.

Each wrapped call is a span (name, start, end, parent, job). Totals are
kept per metric name: `.calls` counts every call, `.s` is inclusive time
of the outermost calls (a recursive call is not counted twice) and
`.self_s` is span time minus the time its child spans cover. Spans of the
per-term kernel calls (`series_mul`, `series_add`, `Series.__mul__`) are
counted but not kept, since a run makes millions of them; every other
span is kept in memory and written as JSON when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from holonorm import algebra, backend, centralizer, cli, field, fileio, grading
from holonorm import hypersurface, manifold, normalform

CS = ("calls", "s")
CSS = ("calls", "s", "self_s")

# metric name, owner (a module or a class), the owner's attributes it
# times, and the totals reported for it; the order is the report's order
TARGETS = (
    ("backend.series_mul", backend, ("series_mul",), ("calls", "s", "terms_out")),
    ("backend.series_add", backend, ("series_add",), CS),
    ("algebra.substitute", algebra.Series, ("substitute",), CSS),
    ("algebra.mul", algebra.Series, ("__mul__",), CSS),
    ("algebra.invert_unit", algebra.Series, ("invert_unit",), CS),
    ("grading.component", grading, ("component",), CS),
    ("field.pushforward", field, ("pushforward",), CSS),
    ("field.jet_inverse", field, ("jet_inverse",), CSS),
    ("field.compose", field.JetMap, ("compose",), CS),
    ("field.bracket", field, ("bracket",), CS),
    ("hypersurface.tangency_residual", hypersurface, ("tangency_residual",), CS),
    ("hypersurface.transport", hypersurface, ("transport",), CSS),
    ("normalform.prenormalize", normalform, ("prenormalize",), CSS),
    ("normalform.normalize", normalform,
     ("normalize_ord0", "normalize_generic", "normalize_alpha_zero", "normalize_b_zero"), CSS),
    ("normalform.majorant_certificate", normalform, ("majorant_certificate",), CSS),
    ("manifold.realize", manifold,
     ("realize_generic", "realize_alpha_zero", "realize_b_zero", "realize_nf7"), CSS),
    ("centralizer.jet_centralizer", centralizer, ("jet_centralizer",), CSS),
    ("centralizer.symmetry_support_check", centralizer, ("symmetry_support_check",), CS),
    ("centralizer.divergence_probe", centralizer, ("divergence_probe",), CS),
    ("fileio.parse", fileio, ("parse_field", "parse_hypersurface", "parse_series"), CS),
    ("fileio.serialize", fileio,
     ("serialize_field", "serialize_hypersurface", "jetmap_lines"), CS),
    ("cli.main", cli, ("main",), CSS),
)
UNITS = {"calls": "count", "s": "s", "self_s": "s", "terms_out": "count"}

UNKEPT = {"backend.series_mul", "backend.series_add", "algebra.mul"}
NORMALFORM = ("normalform.prenormalize", "normalform.normalize",
              "normalform.majorant_certificate")


class _Frame:
    __slots__ = ("start", "child", "span")

    def __init__(self, start, span):
        self.start = start
        self.child = 0.0
        self.span = span


class Tracer:
    """Per-layer totals and spans, accumulated over every job run while
    the tracer is installed."""

    def __init__(self):
        self.job = None
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.terms_out = 0
        self.kill_passes = 0
        self.spans = []
        self._stack = []
        self._depth = defaultdict(int)
        self._restore = []

    # -- patching ------------------------------------------------------

    def install(self):
        wrappers = {}
        for name, owner, attrs, _ in TARGETS:
            for attr in attrs:
                original = owner.__dict__[attr]
                wrappers[id(original)] = (original, self._wrap(name, original))
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if key == "holonorm" or key.startswith("holonorm.")]
        namespaces += [algebra.Series, field.JetMap]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._restore.append((ns, attr, value))

    def uninstall(self):
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore = []

    def _wrap(self, name, fn):
        keep = name not in UNKEPT
        is_mul = name == "backend.series_mul"
        is_push = name == "field.pushforward"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_push and any(self._depth[n] for n in NORMALFORM):
                self.kill_passes += 1
            span = None
            if keep:
                parent = next((f.span for f in reversed(self._stack) if f.span is not None),
                              None)
                span = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent, self.job])
            frame = _Frame(clock(), span)
            self._stack.append(frame)
            self._depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self._depth[name] -= 1
                dur = end - frame.start
                self.calls[name] += 1
                self.self_seconds[name] += dur - frame.child
                if not self._depth[name]:
                    self.seconds[name] += dur
                if self._stack:
                    self._stack[-1].child += dur
                if span is not None:
                    self.spans[span][1] = frame.start
                    self.spans[span][2] = end
            if is_mul:
                self.terms_out += len(result)
            return result

        return wrapper

    # -- results -------------------------------------------------------

    def metrics(self):
        """Per-run totals, named `<layer>.<function>.<total>`."""
        totals = {"calls": self.calls, "s": self.seconds, "self_s": self.self_seconds,
                  "terms_out": {"backend.series_mul": self.terms_out}}
        out = {f"{name}.{stat}": {"value": totals[stat][name], "unit": UNITS[stat]}
               for name, _, _, stats in TARGETS for stat in stats}
        out["normalform.kill_passes"] = {"value": self.kill_passes, "unit": "count"}
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)
