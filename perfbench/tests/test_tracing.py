"""Span arithmetic, count repeatability and tolerance of missing entry points."""

import pytest

from g2frames import cli
from g2frames.frames4 import FrameBundle
from g2frames.jets import Jet
from perfbench import metrics
from perfbench.run import trace_pass
from perfbench.tracing import TARGETS, Tracer, self_times
from perfbench.workloads import WORKLOADS, Scenario, rounds


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),  # overlaps a: the union counts once
        ("a.child", 2.0, 3.0, 1, 0),
        ("late", 9.0, 12.0, 0, 0),  # runs past its parent: clipped to it
        ("other_root", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 1.0])
    by_name = metrics.self_ms_by_name(spans)
    assert by_name["root"] == pytest.approx(4000.0)


def _small_scenarios():
    """The first config of each workload, cut to two probes."""
    out = []
    for workload in WORKLOADS:
        sc = next(rounds(workload, 1))[0]
        out.append(Scenario(dict(sc.config, probes=2), sc.tuning))
    return out


def _counts(values):
    return {k: v for k, v in values.items() if not k.endswith("_ms") and k != "trace.overhead_frac"}


def test_per_probe_counts_repeat_exactly_across_traced_runs():
    scenarios = _small_scenarios()
    probes = sum(sc.probes for sc in scenarios)
    seen = []
    for _ in range(2):
        tracer = Tracer()
        trace_pass(cli, scenarios, tracer)
        values, absent = metrics.layer_metrics(tracer, len(scenarios), probes, 1.0)
        assert absent == []
        seen.append(_counts(values))
    assert seen[0] == seen[1]
    assert seen[0]["jets.mul_per_probe"] > 0
    assert seen[0]["frames4.base_builds_per_probe"] > 0
    assert set(metrics.MOVES) == set(values)


def test_patches_are_removed_after_the_traced_pass():
    before = (Jet.__dict__["__mul__"], FrameBundle.__dict__["base"], cli.radius_length_riemann)
    trace_pass(cli, _small_scenarios()[:1], Tracer())
    after = (Jet.__dict__["__mul__"], FrameBundle.__dict__["base"], cli.radius_length_riemann)
    assert before == after


def test_missing_entry_points_are_reported_absent():
    targets = (
        ("radial.riemann", "g2frames.cli", "no_such_function", "span"),
        ("frames4.base", "g2frames.frames4", "FrameBundle.singer_thorpe", "keyed"),  # no order argument
        ("jets.mul", "g2frames.jets", "Jet.__mul__", "count"),
        ("xspace.jets", "g2frames.no_such_module", "XSpaceChart.jets", "keyed"),
    )
    tracer = Tracer(targets)
    scenarios = _small_scenarios()[:1]
    plain, spanned = trace_pass(cli, scenarios, tracer)
    assert tracer.missing == {"radial.riemann", "frames4.base", "xspace.jets"}
    assert [r[1] for r in spanned] == [r[1] for r in plain]
    values, absent = metrics.layer_metrics(tracer, 1, scenarios[0].probes, 1.0)
    assert {"radial.riemann_ms", "frames4.base_build_ms", "xspace.chart_hit_ratio"} <= set(absent)
    assert values["jets.mul_per_probe"] > 0
    assert "radial.riemann_ms" not in values


def test_every_target_exists_at_this_commit():
    tracer = Tracer(TARGETS)
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == set()
