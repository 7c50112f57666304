"""Spans and counts around the layers' public entry points, patched in at run time.

Only the traced run installs a ``Tracer``; the timed run never sees it.  Each
name is patched where its caller looks it up (``cli`` imports several
functions by name).  An entry point that no longer exists is recorded as
missing and every layer metric that needs it is reported as absent.

Hot leaf calls (``Jet.__mul__``, the wedges, ``Profile.lam``) are only
counted, so their time stays in the span that called them.  Calls keyed by
``(point, order)`` count a build the first time an instance sees the key;
later calls with that key are hits and get no span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (metric name, module, attribute path, how): how is "span", "count" or "keyed"
TARGETS = (
    ("frames4.base", "g2frames.frames4", "FrameBundle.base", "keyed"),
    ("frames4.singer_thorpe", "g2frames.frames4", "FrameBundle.singer_thorpe", "span"),
    ("frames4.residuals", "g2frames.frames4", "FrameBundle.cartan_residual", "span"),
    ("frames4.residuals", "g2frames.frames4", "FrameBundle.duality_residuals", "span"),
    ("models.metric_jet", "g2frames.exterior", "ScalarField.jet", "span"),
    ("models.sample", "g2frames.models", "ModelSpec.sample_points", "span"),
    ("xspace.jets", "g2frames.bundle7.xspace", "XSpaceChart.jets", "keyed"),
    ("xspace.structure_residuals", "g2frames.bundle7.xspace", "XSpaceChart.structure_residuals", "span"),
    ("xspace.torsion_numeric", "g2frames.bundle7.xspace", "XSpaceChart.torsion_numeric", "span"),
    ("xspace.torsion_closed", "g2frames.bundle7.xspace", "XSpaceChart.torsion_closed", "span"),
    ("pspace.jets", "g2frames.bundle7.pspace", "PSpaceChart.jets", "keyed"),
    ("pspace.rotation_jets", "g2frames.bundle7.pspace", "rotation_jets", "span"),
    ("pspace.identity_residuals", "g2frames.bundle7.pspace", "PSpaceChart.identity_residuals", "span"),
    ("pspace.torsion_numeric", "g2frames.bundle7.pspace", "PSpaceChart.torsion_numeric", "span"),
    ("pspace.torsion_closed", "g2frames.bundle7.pspace", "PSpaceChart.torsion_closed", "span"),
    ("g2point.torsion_decompose", "g2frames.bundle7.xspace", "torsion_decompose", "span"),
    ("g2point.torsion_decompose", "g2frames.bundle7.pspace", "torsion_decompose", "span"),
    ("g2point.standard_phi", "g2frames.bundle7.xspace", "standard_phi", "count"),
    ("g2point.standard_phi", "g2frames.bundle7.pspace", "standard_phi", "count"),
    ("g2point.standard_phi", "g2frames.cli", "standard_phi", "count"),
    ("profiles.lemma", "g2frames.cli", "two_of_three_report", "span"),
    ("profiles.lam", "g2frames.bundle7.profiles", "Profile.lam", "count"),
    ("radial.simpson", "g2frames.cli", "radius_length", "span"),
    ("radial.riemann", "g2frames.cli", "radius_length_riemann", "span"),
    ("jets.mul", "g2frames.jets", "Jet.__mul__", "count"),
    ("jets.compose", "g2frames.jets", "Jet.compose", "count"),
    ("exterior.jetform_wedge", "g2frames.exterior", "JetForm.wedge", "count"),
    ("exterior.d_value", "g2frames.exterior", "JetForm.d_value", "count"),
    ("exterior.multivector_wedge", "g2frames.exterior", "Multivector.wedge", "count"),
)


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval its children cover.

    ``spans`` is a list of ``(name, start, end, parent, run)`` tuples whose
    ``parent`` is the index of the parent span, or -1 for a root.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


class Tracer:
    """In-memory spans and counts for one traced pass."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []  # (name, start, end, parent index, run id)
        self.counts = Counter()
        self.builds = Counter()
        self.hits = Counter()
        self.missing = set()  # metric names whose entry point was not found
        self.run_id = -1
        self._stack = []
        # id(instance) -> (instance, keys seen); holding the instance keeps its id
        # from being reused within a run, and the dict is cleared per run
        self._seen = {}
        self._undo = []

    # -- recording ---------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.run_id)

    def begin_run(self, run_id: int):
        """Start a new run id; instances from earlier runs are forgotten."""
        self.run_id = run_id
        self._seen.clear()

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _keyed_wrapper(self, name, fn):
        params = list(inspect.signature(fn).parameters.values())
        if len(params) < 3 or [p.name for p in params[1:3]] != ["point", "order"]:
            raise TypeError(f"{name}: expected (self, point, order)")
        default_order = params[2].default
        spanned = self._span_wrapper(name, fn)
        seen = self._seen

        @functools.wraps(fn)
        def wrapper(inst, point, *args, **kwargs):
            order = args[0] if args else kwargs.get("order", default_order)
            key = (tuple(float(v) for v in point), order)
            entry = seen.get(id(inst))
            if entry is None:
                entry = seen[id(inst)] = (inst, set())
            if key in entry[1]:
                self.hits[name] += 1
                return fn(inst, point, *args, **kwargs)
            entry[1].add(key)
            self.builds[name] += 1
            return spanned(inst, point, *args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------
    def install(self):
        """Patch every target that exists; remember the rest as missing."""
        make = {"span": self._span_wrapper, "count": self._count_wrapper, "keyed": self._keyed_wrapper}
        for name, module, path, how in self.targets:
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapped = make[how](name, original)
            except (ImportError, AttributeError, TypeError, ValueError):
                self.missing.add(name)
                continue
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            setattr(*self._undo.pop())

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent, "run": run}
                fh.write(json.dumps(row) + "\n")
