"""Runner configuration, reports, exit codes, and determinism."""

import json
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from g2frames import cli, exterior, frames4
from g2frames.bundle7 import chart as chart_module
from g2frames.bundle7 import pspace as pspace_module
from g2frames.bundle7.profiles import ProfileDomainError
from g2frames.bundle7.pspace import ChartBoundError, PSpaceChart
from g2frames.bundle7.radial import QuadratureError
from g2frames.bundle7.xspace import EDGE_MARGIN, XSpaceChart
from g2frames.cli import ConfigError, RunConfig, SUITES, list_suites, main, run
from g2frames.exterior import Multivector
from g2frames.frames4 import FrameBundle, NonSPDMetricError, ResidualError, pairing_sign
from g2frames.g2point import DecompositionError, DegeneratePhiError

BS_SPHERE = {
    "model": "sphere4",
    "space": "X",
    "branch": -1,
    "profile": {"kind": "bs", "s": 1.0, "c0": 1.0, "c1": 1.0},
    "probes": 4,
    "seed": 11,
}

P_HYPER = {
    "model": "hyperbolic4",
    "space": "P",
    "branch": -1,
    "profile": {"kind": "constant", "lam": 1.0, "mu": float(np.sqrt(2.0))},
    "probes": 4,
    "seed": 11,
}


def test_config_round_trip():
    cfg = RunConfig.from_dict(BS_SPHERE)
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_rejects_unknown_key():
    bad = dict(BS_SPHERE, tolerance=1e-9)
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(bad)
    assert "tolerance" in str(err.value)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="model"):
        RunConfig.from_dict(dict(BS_SPHERE, model="banana"))
    with pytest.raises(ConfigError, match="branch"):
        RunConfig.from_dict(dict(BS_SPHERE, branch=0))
    with pytest.raises(ConfigError, match="profile.c1"):
        cfg = dict(BS_SPHERE, profile={"kind": "bs", "s": 1.0, "c0": 1.0})
        RunConfig.from_dict(cfg)
    with pytest.raises(ConfigError, match="profile.gamma"):
        cfg = dict(BS_SPHERE, profile={"kind": "bs", "s": 1.0, "c0": 1.0, "c1": 1.0, "gamma": 2})
        RunConfig.from_dict(cfg)
    assert RunConfig.from_dict(dict(BS_SPHERE, probes=cli.MAX_PROBES)).probes == 100_000
    with pytest.raises(ConfigError, match="'probes'"):
        RunConfig.from_dict(dict(BS_SPHERE, probes=cli.MAX_PROBES + 1))


def test_parallel_structure_report():
    report = run(RunConfig.from_dict(BS_SPHERE))
    assert report.passed
    assert report.torsion_label == "parallel"
    checks = {r.check for r in report.records}
    assert "x/torsion-closed-vs-numeric" in checks
    assert "x/parallel" in checks
    assert "x/lemma-two-of-three" in checks
    for rec in report.records:
        assert rec.anchor == SUITES[rec.check]


def test_pure_w3_report():
    report = run(RunConfig.from_dict(P_HYPER))
    assert report.passed
    assert report.torsion_label == "pure W3, cocalibrated"
    checks = {r.check for r in report.records}
    assert {"p/cocalibrated", "p/never-calibrated", "p/pure-w3", "p/w3-closed-form"} <= checks
    env = report.environment["conventions"]
    assert env["curvaturePairingSign"] == 1
    assert env["w14EigenvaluePlus"] == -1.0
    assert env["w14EigenvalueMinus"] == 1.0


def test_flat_constant_run_is_parallel():
    cfg = RunConfig.from_dict(
        {
            "model": "flat",
            "space": "X",
            "branch": 1,
            "profile": {"kind": "constant", "lam": 1.0, "mu": 1.0},
            "probes": 4,
            "seed": 2,
        }
    )
    report = run(cfg)
    assert report.passed
    assert report.torsion_label == "parallel"


def test_disk_run_includes_radial_check():
    cfg = RunConfig.from_dict(
        {
            "model": "hyperbolic4",
            "space": "X",
            "branch": -1,
            "profile": {"kind": "bs", "s": -1.0, "c0": 1.0, "c1": 1.0},
            "probes": 3,
            "seed": 5,
        }
    )
    report = run(cfg)
    assert report.passed
    assert any(r.check == "x/radial-incompleteness" for r in report.records)
    assert any(r.check == "x/parallel" for r in report.records)


def _bs_disk(model, branch, c0, c1, seed, s=-1.0):
    profile = {"kind": "bs", "s": s, "c0": c0, "c1": c1}
    return {"model": model, "space": "X", "branch": branch, "profile": profile, "probes": 5, "seed": seed}


@pytest.mark.parametrize(
    "config",
    [
        _bs_disk("complexHyperbolic", -1, 0.8495547166611666, 1.083004300388044, 891803367),
        _bs_disk("hyperbolic4", -1, 0.8507411974997299, 1.1948614565131122, 999647762),
        _bs_disk("hyperbolic4", -1, 0.7315174007497934, 1.2477409560985078, 897479909),
        _bs_disk("hyperbolic4", -1, 0.8221760417874919, 0.9271761576400941, 1741789300),
        _bs_disk("hyperbolic4", 1, 0.7629268917357519, 0.7394607137369108, 2089212427),
    ],
    ids=[
        "complexHyperbolic-minus",
        "hyperbolic4-minus-a",
        "hyperbolic4-minus-b",
        "hyperbolic4-minus-c",
        "hyperbolic4-plus",
    ],
)
def test_disk_runs_that_drew_a_probe_next_to_the_edge_pass(config):
    # without the edge margin each draws a probe within ~1e-4 of r0, where
    # the torsion reconstruction fails in double precision
    assert run(RunConfig.from_dict(config)).passed


def test_run_with_an_inner_edge_passes():
    # s > 0, c1 < 0: the radial factor vanishes at r_min = 0.4 and lam blows up there
    report = run(RunConfig.from_dict(_bs_disk("sphere4", -1, 1.0, -0.8, 3, s=1.0)))
    assert report.passed


def _probes_at(monkeypatch, rel):
    """Place every X probe at the relative distance ``rel`` from the profile
    edge: 1 - r/r0 = rel on a disk, r/r_min - 1 = rel otherwise."""

    def sample_points(self, count, rng, a_max=1.2):
        prof = self.profile
        r = prof.r0 * (1.0 - rel) if prof.r0 is not None else prof.r_min * (1.0 + rel)
        pts = self.model.sample_points(count, rng)
        u = rng.normal(size=(count, 3))
        fiber = np.sqrt(r) * u / np.linalg.norm(u, axis=1, keepdims=True)
        return np.hstack([fiber, pts])

    monkeypatch.setattr(XSpaceChart, "sample_points", sample_points)


@pytest.mark.parametrize(
    "model, branch, s, c1",
    [
        ("hyperbolic4", -1, -1.0, 0.8),
        ("complexHyperbolic", -1, -1.0, 1.3),
        ("hyperbolic4", 1, -1.0, 1.1),
        ("sphere4", -1, 1.0, -0.9),
        ("fubiniStudy", -1, 1.0, -0.7),
    ],
)
def test_records_hold_with_room_at_the_edge_margin(monkeypatch, model, branch, s, c1):
    # on a disk the largest ratio, about 9e-3, is x/radial-incompleteness,
    # which does not depend on the probes; the probe records stay below 1e-3
    _probes_at(monkeypatch, EDGE_MARGIN)
    for c0, seed in ((0.75, 1), (1.25, 2)):
        report = run(RunConfig.from_dict(_bs_disk(model, branch, c0, c1, seed, s=s)))
        for rec in report.records:
            assert rec.value <= 1e-2 * rec.tolerance, (rec.check, rec.value)


@pytest.mark.parametrize("config", [BS_SPHERE, P_HYPER], ids=["X", "P"])
def test_each_probe_builds_its_base_frame_once(monkeypatch, config):
    cfg = RunConfig.from_dict(dict(config, probes=10))
    pairing_sign()  # the sign anchor builds its own sphere frame once per process
    calls = Counter()
    seen = []

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    frame_values = cli._frame_values
    monkeypatch.setattr(FrameBundle, "_build", counted("build", FrameBundle._build))
    monkeypatch.setattr(frames4, "_assemble_blocks", counted("blocks", frames4._assemble_blocks))
    monkeypatch.setattr(cli, "_frame_values", lambda chart, x: seen.append((chart, x)) or frame_values(chart, x))
    cls = XSpaceChart if cfg.space == "X" else PSpaceChart
    monkeypatch.setattr(cls, "_coframe", staticmethod(counted("coframe", cls._coframe)))
    assert run(cfg).passed
    assert calls == {"build": 10, "blocks": 10, "coframe": 10}
    # the frame records read the base points of the chart's own probes
    chart = seen[0][0]
    base = chart.sample_points(10, np.random.default_rng(cfg.seed))[:, 3:]
    assert all(c is chart for c, _ in seen) and np.array_equal([x for _, x in seen], base)


# per probe: the adapted coframe and the base frame; a P probe also reads the
# base coframe's compound, for the base Hodge star in the closed torsion
@pytest.mark.parametrize("config, per_probe", [(BS_SPHERE, 2), (P_HYPER, 3)], ids=["X", "P"])
def test_run_reads_changes_of_basis_from_compounds(monkeypatch, config, per_probe):
    cfg = RunConfig.from_dict(dict(config, probes=10))
    pairing_sign()  # the sign anchor builds its own sphere frame once per process
    calls = Counter()

    def refuse(*args, **kwargs):
        raise AssertionError("a minor by determinant")

    def counted(*args):
        calls["compounds"] += 1
        return exterior.compounds(*args)

    monkeypatch.setattr(np.linalg, "det", refuse)
    monkeypatch.setattr(Multivector, "transform", refuse)
    for module in (frames4, chart_module, pspace_module):
        monkeypatch.setattr(module, "compounds", counted)
    assert run(cfg).passed
    assert calls["compounds"] == 10 * per_probe


def test_reports_deterministic_and_parallel_identical():
    cfg = RunConfig.from_dict(BS_SPHERE)
    a = run(cfg).to_json()
    b = run(cfg).to_json()
    assert a == b
    different = run(RunConfig.from_dict(dict(BS_SPHERE, seed=12))).to_json()
    assert different != a


def test_main_exit_codes(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BS_SPHERE))
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(path), "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["pass"] is True
    assert data["torsionLabel"] == "parallel"
    capsys.readouterr()

    # numerical failure: impossible tolerance
    assert main(["run", "--config", str(path), "--tol", "1e-30", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "FAILED" in err

    # config failure: bad key
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(BS_SPHERE, flavor="salt")))
    assert main(["run", "--config", str(bad)]) == 2
    assert "flavor" in capsys.readouterr().err

    # unreadable config
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_main_seed_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BS_SPHERE))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["run", "--config", str(path), "--seed", "3", "--json", str(out1), "--quiet"]) == 0
    assert main(["run", "--config", str(path), "--seed", "3", "--json", str(out2), "--quiet"]) == 0
    assert out1.read_text() == out2.read_text()


def test_list_suites_mentions_core_checks(capsys):
    text = list_suites()
    assert "p/cocalibrated" in text
    assert "always cocalibrated" in text
    assert "x/torsion-closed-vs-numeric" in text
    assert "x/radial-incompleteness" in text
    assert main(["list-suites"]) == 0
    assert "frames/cartan" in capsys.readouterr().out


@pytest.mark.parametrize(
    "change, key",
    [
        ({"branch": True}, "branch"),
        ({"probes": 2.7}, "probes"),
        ({"probes": "abc"}, "probes"),
        ({"seed": -1}, "seed"),
        ({"tol": float("nan")}, "tol"),
        ({"tol": "x"}, "tol"),
        ({"report": 3}, "report"),
        ({"profile": "bs"}, "profile"),
        ({"profile": {"kind": "bs", "s": 1.0, "c0": True, "c1": 1.0}}, "profile.c0"),
        ({"profile": {"kind": "bs", "s": 1.0, "c0": 0.0, "c1": 1.0}}, "profile"),
        ({"profile": {"kind": "bs", "s": -1.0, "c0": 1.0, "c1": -1.0}}, "profile"),
        ({"space": "P", "profile": {"kind": "constant", "lam": 1.0, "mu": 0.0}}, "profile"),
        ({"params": []}, "params"),
        ({"params": {"foo": 1}}, "params.foo"),
        ({"params": {"kappa": 0}}, "params.kappa"),
        ({"params": {"kappa": "big"}}, "params.kappa"),
        ({"model": "fubiniStudy", "branch": 1}, "branch"),
        ({"model": "complexHyperbolic", "branch": 1}, "branch"),
        ({"profile": {"kind": "bs", "s": 1.0, "c0": 1.0, "c1": -100.0}}, "profile"),
        (
            {"model": "hyperbolic4", "profile": {"kind": "bs", "s": -1.0, "c0": 1.0, "c1": 1e-12}},
            "profile",
        ),
        # bs_profile squares c0, which overflows before any probe runs
        ({"profile": {"kind": "bs", "s": 1.0, "c0": 1e160, "c1": 1.0}}, "profile"),
        # only sphere4 and hyperbolic4 take a curvature scale
        ({"model": "flat", "branch": 1, "params": {"kappa": 7.0}}, "params.kappa"),
        ({"model": "fubiniStudy", "params": {"kappa": 7.0}}, "params.kappa"),
        ({"model": "complexHyperbolic", "params": {"kappa": 7.0}}, "params.kappa"),
        ({"model": "productS2H2", "branch": 1, "params": {"kappa": 7.0}}, "params.kappa"),
        # the model divides by kappa**2, which overflows or underflows to 0
        ({"params": {"kappa": 1e200}}, "params.kappa"),
        ({"params": {"kappa": 1e-200}}, "params.kappa"),
        # an integral float far beyond MAX_PROBES, which no probe array could hold
        ({"probes": 1e300}, "probes"),
        # an integral float branch is accepted as an integer, so the message formats it as one
        ({"model": "fubiniStudy", "branch": 1.0}, "branch"),
    ],
)
def test_main_rejects_mistyped_config(tmp_path, capsys, change, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BS_SPHERE, **change)))
    assert main(["run", "--config", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("top", ["null", "42", '"abc"', "[]"])
@pytest.mark.parametrize("override", [[], ["--seed", "3"], ["--probes", "2"], ["--tol", "1e-6"]])
def test_main_rejects_non_object_config(tmp_path, capsys, top, override):
    path = tmp_path / "cfg.json"
    path.write_text(top)
    assert main(["run", "--config", str(path), "--quiet", *override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, extra, named",
    [
        (b"\xff\xfe{}", [], "--config"),
        (json.dumps(dict(BS_SPHERE, probes=2, report="{tmp}/missing/report.json")).encode(), [], "'report'"),
        (json.dumps(dict(BS_SPHERE, probes=2)).encode(), ["--json", "{tmp}"], "--json"),
        (json.dumps(BS_SPHERE).encode(), ["--probes", str(10**20)], "'probes'"),
    ],
    ids=["config-not-utf8", "report-in-missing-directory", "json-is-a-directory", "probes-flag-too-large"],
)
def test_main_unusable_input_is_one_config_error(tmp_path, capsys, text, extra, named):
    path = tmp_path / "cfg.json"
    path.write_bytes(text.replace(b"{tmp}", str(tmp_path).encode()))
    extra = [arg.replace("{tmp}", str(tmp_path)) for arg in extra]
    assert main(["run", "--config", str(path), "--quiet", *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and named in err, err
    assert "Traceback" not in err


def test_coframe_bundle_runs_need_no_duality_hypothesis():
    # the Kaehler models are not anti-self-dual: only the 2-form bundle's branch +1 is out
    for model in ("fubiniStudy", "complexHyperbolic"):
        assert RunConfig.from_dict(dict(P_HYPER, model=model, branch=1)).branch == 1


def test_main_numerical_failure_is_one_line(tmp_path, capsys):
    # a tiny curvature radius trips the absolute block-symmetry bound
    cfg = dict(BS_SPHERE, params={"kappa": 1e-3}, profile={"kind": "bs", "s": 1e6, "c0": 1.0, "c1": 1.0})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "error",
    [
        ResidualError("curvature blocks not symmetric (1.00e-05)"),
        DecompositionError(1e-7, 0.0, 0.0, 0.0),
        DegeneratePhiError(5),
        QuadratureError("quadrature failed to converge on [0, 1]"),
        NonSPDMetricError((0.1, 0.2, 0.3, 0.4), "(pivot 2)"),
        ProfileDomainError("r = 0.65 outside the profile domain"),
        ChartBoundError(3.1),
    ],
    ids=lambda e: type(e).__name__,
)
def test_main_maps_numerical_errors_to_exit_1(tmp_path, capsys, monkeypatch, error):
    def fail(config):
        raise error

    monkeypatch.setattr(cli, "run", fail)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BS_SPHERE))
    assert main(["run", "--config", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == f"numerical failure: {error}\n"


# lam = 1e77 overflows the torsion of a valid coframe-bundle config to NaN
P_OVERFLOW = {
    "model": "sphere4",
    "space": "P",
    "branch": -1,
    "profile": {"kind": "constant", "lam": 1e77, "mu": 1.0},
    "probes": 3,
    "seed": 1,
}


def test_nan_torsion_is_not_labelled_parallel():
    with np.errstate(all="ignore"):
        report = run(RunConfig.from_dict(P_OVERFLOW))
    assert not report.passed
    assert report.torsion_label != "parallel"


def test_non_finite_values_are_written_as_null(tmp_path, capsys):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(P_OVERFLOW))
    out = tmp_path / "report.json"
    with np.errstate(all="ignore"):
        assert main(["run", "--config", str(path), "--json", str(out), "--quiet"]) == 1
    capsys.readouterr()
    data = json.loads(out.read_text(), parse_constant=reject)
    nulls = [r for r in data["records"] if r["maxResidual"] is None]
    assert nulls and all(r["pass"] is False for r in nulls)


def _nan_on_second_call(monkeypatch, cls, name):
    """Make ``cls.name`` return all-NaN residuals on its second call only."""
    original = getattr(cls, name)
    calls = []

    def patched(self, point):
        calls.append(point)
        res = original(self, point)
        return {k: float("nan") for k in res} if len(calls) == 2 else res

    monkeypatch.setattr(cls, name, patched)


@pytest.mark.parametrize(
    "config, cls, name, check",
    [
        (BS_SPHERE, XSpaceChart, "structure_residuals", "x/radius-differential"),
        (P_HYPER, PSpaceChart, "identity_residuals", "p/identities"),
    ],
    ids=["X", "P"],
)
def test_nan_on_a_later_probe_fails_its_record(monkeypatch, config, cls, name, check):
    _nan_on_second_call(monkeypatch, cls, name)
    report = run(RunConfig.from_dict(config))
    record = next(r for r in report.records if r.check == check)
    assert np.isnan(record.value) and not record.passed
    assert not report.passed


@pytest.mark.parametrize(
    "config",
    [
        P_OVERFLOW,
        dict(P_OVERFLOW, profile={"kind": "constant", "lam": 1e100, "mu": 1.0}),
        dict(BS_SPHERE, profile={"kind": "bs", "s": 1e200, "c0": 1.0, "c1": 1.0}, probes=3, seed=1),
    ],
    ids=["lam-1e77", "lam-1e100", "bs-s-1e200"],
)
def test_overflowing_run_fails_with_one_line(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(("FAILED: ", "numerical failure: "))


@pytest.mark.parametrize(
    "config, where",
    [
        (
            dict(P_OVERFLOW, profile={"kind": "constant", "lam": 1e100, "mu": 1.0}),
            "P records: lam**4 * mu**0 overflows at lam = 1e+100, mu = 1.0",
        ),
        (
            dict(BS_SPHERE, profile={"kind": "bs", "s": 1.0, "c0": 1e-160, "c1": 1.0}, probes=3, seed=1),
            "X records, probe 0: lam**3 * mu**4 underflows to 0 at lam = 9.9999",
        ),
        (
            dict(BS_SPHERE, params={"kappa": 1e-3}, profile={"kind": "bs", "s": 1e6, "c0": 1.0, "c1": 1.0}),
            "frame records, probe 0: ",
        ),
        (
            dict(P_OVERFLOW, branch=1, profile={"kind": "constant", "lam": 1e-200, "mu": 1.0}, probes=2),
            "P records: lam**2 * mu**0 underflows",
        ),
        (
            dict(BS_SPHERE, profile={"kind": "constant", "lam": 1e-200, "mu": 1.0}, probes=2, seed=1),
            "X records, probe 0: ",
        ),
        (
            dict(BS_SPHERE, model="flat", branch=1, profile={"kind": "bs", "s": 0.0, "c0": 1.0, "c1": 1e-300}),
            "X records, probe 0: jet power -0.5 at v = 1e-300: v**-1.5 overflows",
        ),
        (
            dict(BS_SPHERE, params={"kappa": 1e-150}, probes=2, seed=1),
            "frame records, probe 0: jet reciprocal at v = 1.5244325217875997e+299: v**2 overflows",
        ),
    ],
    ids=[
        "P-lam-1e100",
        "X-bs-c0-1e-160",
        "frame-kappa-1e-3",
        "P-lam-1e-200",
        "X-lam-1e-200",
        "X-bs-c1-1e-300",
        "frame-kappa-1e-150",
    ],
)
def test_numerical_failure_names_its_stage_and_probe(tmp_path, capsys, config, where):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: " + where), err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("config", [BS_SPHERE, P_HYPER], ids=["X", "P"])
def test_run_memory_does_not_grow_with_probes(config):
    def peak(probes):
        tracemalloc.start()
        try:
            run(RunConfig.from_dict(dict(config, probes=probes)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run(RunConfig.from_dict(dict(config, probes=1)))  # lazy tables and anchors
    assert peak(100) <= 3.0 * peak(10)
