"""Metric tables of the benchmark and the arithmetic that fills them.

``BENCHMARK.json`` is generated from these tables (``run.py --write-manifest``),
so the names, units, directions and bounds live in one place.  ``MOVES`` is the
prediction made before measuring: which end-to-end metric, on which workload,
each layer metric should move.  ``BENCHMARK.json`` has no field for it, so it
is printed with every traced run instead.
"""

from __future__ import annotations

from collections import defaultdict

from .tracing import self_times
from .workloads import WHY

RUN_SECONDS = 30

# Bounds are wide because on a shared 2-vCPU virtual machine run times drift by
# 15-20% over minutes; setup_s keeps the largest bound.

END_TO_END = (
    {"name": "probes_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
    {"name": "run_s_p50", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
)

_SWEEPS = "probes_per_s on x-sweep and p-sweep"
_ALL = "probes_per_s on all three workloads; the smallest share is on x-disk"
_X = "probes_per_s on x-sweep"
_P = "probes_per_s on p-sweep"
_RADIAL = "run_s_p50 on x-disk; no change on x-sweep or p-sweep"

# name, unit, better, moves, (kind, source): the source is a span, count or keyed target
PER_LAYER = (
    ("jets.mul_per_probe", "count", "lower", _SWEEPS, ("per_probe", "jets.mul")),
    ("jets.compose_per_probe", "count", "lower", _SWEEPS, ("per_probe", "jets.compose")),
    ("exterior.jetform_wedge_per_probe", "count", "lower", _X, ("per_probe", "exterior.jetform_wedge")),
    ("exterior.d_value_per_probe", "count", "lower", _X, ("per_probe", "exterior.d_value")),
    ("exterior.multivector_wedge_per_probe", "count", "lower", _P, ("per_probe", "exterior.multivector_wedge")),
    ("frames4.base_build_ms", "ms", "lower", _ALL, ("self_ms", "frames4.base")),
    ("frames4.base_builds_per_probe", "count", "lower", _ALL, ("builds_per_probe", "frames4.base")),
    ("frames4.base_hit_ratio", "ratio", "higher", _ALL, ("hit_ratio", "frames4.base")),
    ("frames4.singer_thorpe_ms", "ms", "lower", _ALL, ("self_ms", "frames4.singer_thorpe")),
    ("frames4.residuals_ms", "ms", "lower", _ALL, ("self_ms", "frames4.residuals")),
    ("models.metric_jet_ms", "ms", "lower", _X, ("self_ms", "models.metric_jet")),
    ("models.sample_ms", "ms", "lower", _X, ("self_ms", "models.sample")),
    ("xspace.chart_build_ms", "ms", "lower", _X, ("self_ms", "xspace.jets")),
    ("xspace.chart_hit_ratio", "ratio", "higher", _X, ("hit_ratio", "xspace.jets")),
    ("xspace.structure_residuals_ms", "ms", "lower", _X, ("self_ms", "xspace.structure_residuals")),
    ("xspace.torsion_numeric_ms", "ms", "lower", _X, ("self_ms", "xspace.torsion_numeric")),
    ("xspace.torsion_closed_ms", "ms", "lower", _X, ("self_ms", "xspace.torsion_closed")),
    ("pspace.chart_build_ms", "ms", "lower", _P, ("self_ms", "pspace.jets")),
    ("pspace.rotation_jets_ms", "ms", "lower", _P, ("self_ms", "pspace.rotation_jets")),
    ("pspace.identity_residuals_ms", "ms", "lower", _P, ("self_ms", "pspace.identity_residuals")),
    ("pspace.torsion_numeric_ms", "ms", "lower", _P, ("self_ms", "pspace.torsion_numeric")),
    ("pspace.torsion_closed_ms", "ms", "lower", _P, ("self_ms", "pspace.torsion_closed")),
    (
        "g2point.torsion_decompose_ms",
        "ms",
        "lower",
        _SWEEPS + "; about a 2% share, so the move is at most that",
        ("self_ms", "g2point.torsion_decompose"),
    ),
    ("g2point.standard_phi_per_probe", "count", "lower", _SWEEPS, ("per_probe", "g2point.standard_phi")),
    ("profiles.lemma_ms", "ms", "lower", _RADIAL, ("self_ms", "profiles.lemma")),
    ("radial.riemann_ms", "ms", "lower", _RADIAL, ("self_ms", "radial.riemann")),
    ("radial.simpson_ms", "ms", "lower", _RADIAL, ("self_ms", "radial.simpson")),
    ("radial.integrand_evals_per_run", "count", "lower", _RADIAL, ("per_run", "profiles.lam")),
    ("frames4.cache_entries_per_run", "count", "lower", "peak_rss_mb on x-sweep", ("builds_per_run", "frames4.base")),
    ("xspace.cache_entries_per_run", "count", "lower", "peak_rss_mb on x-sweep", ("builds_per_run", "xspace.jets")),
    ("cli.self_ms", "ms", "lower", "run_s_p50 on x-disk", ("self_ms", "cli.run")),
    ("cli.to_json_ms", "ms", "lower", "run_s_p50 on x-disk", ("self_ms", "cli.to_json")),
    (
        "trace.overhead_frac",
        "ratio",
        "lower",
        "none; it is the traced wall time over the untraced wall time",
        ("overhead", None),
    ),
)
MOVES = {name: moves for name, _, _, moves, _ in PER_LAYER}
UNITS = {name: unit for name, unit, *_ in PER_LAYER}


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WHY.items()],
        "end_to_end": [dict(m) for m in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER],
    }


def self_ms_by_name(spans) -> dict:
    """Summed self time in milliseconds per span name."""
    out = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        out[span[0]] += own * 1e3
    return dict(out)


def layer_metrics(tracer, configs: int, probes: int, overhead: float):
    """(values by metric name, names reported as absent) for one traced pass.

    ``_ms`` values are self time per config; ``_per_probe`` and ``_per_run``
    values are exact counts divided by probes or configs.  A layer the
    workload never enters reads 0.
    """
    own_ms = self_ms_by_name(tracer.spans)
    values, absent = {}, []
    for name, _, _, _, (kind, source) in PER_LAYER:
        if source in tracer.missing:
            absent.append(name)
            continue
        if kind == "self_ms":
            values[name] = own_ms.get(source, 0.0) / configs
        elif kind == "per_probe":
            values[name] = tracer.counts[source] / probes
        elif kind == "per_run":
            values[name] = tracer.counts[source] / configs
        elif kind == "builds_per_probe":
            values[name] = tracer.builds[source] / probes
        elif kind == "builds_per_run":
            values[name] = tracer.builds[source] / configs
        elif kind == "hit_ratio":
            calls = tracer.builds[source] + tracer.hits[source]
            values[name] = tracer.hits[source] / calls if calls else 0.0
        else:
            values[name] = overhead
    return values, absent
