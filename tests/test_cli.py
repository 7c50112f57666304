"""Runner configuration, reports, exit codes, and determinism."""

import dataclasses
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
from g2frames.exterior import Multivector, ScalarField
from g2frames.frames4 import FrameBundle, NonSPDMetricError, ResidualError, pairing_sign
from g2frames.g2point import DecompositionError, DegeneratePhiError
from g2frames.models import get_model

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


def _probe_rows(result) -> int:
    """Probes a chunk quantity covers: the length of its leading probe axis."""
    return len(result.s) if isinstance(result, frames4.SingerThorpe) else len(result)


@pytest.mark.parametrize("config", [BS_SPHERE, P_HYPER], ids=["X", "P"])
def test_each_probe_builds_its_base_frame_once(monkeypatch, config):
    probes = cli.PROBE_CHUNK + 3
    cfg = RunConfig.from_dict(dict(config, probes=probes))
    pairing_sign()  # the sign anchor builds its own sphere frame once per process
    calls, rows = Counter(), Counter()
    frame_builds, chart_bases = [], []

    def counted(name, fn):
        def wrapper(*args):
            out = fn(*args)
            calls[name] += 1
            rows[name] += _probe_rows(out.point if name == "build" else out)
            if name == "coframe":
                chart_bases.append(args[0].base)
            return out

        return wrapper

    chunk_values = FrameBundle.chunk_values
    monkeypatch.setattr(FrameBundle, "_build", counted("build", FrameBundle._build))
    monkeypatch.setattr(frames4, "_assemble_blocks", counted("blocks", frames4._assemble_blocks))
    monkeypatch.setattr(
        FrameBundle, "chunk_values", lambda self, bd, exp: frame_builds.append(bd) or chunk_values(self, bd, exp)
    )
    cls = XSpaceChart if cfg.space == "X" else PSpaceChart
    monkeypatch.setattr(cls, "_coframe", staticmethod(counted("coframe", cls._coframe)))
    assert run(cfg).passed
    # every probe's base frame, blocks and coframe are formed once, in one pass per chunk
    assert rows == {"build": probes, "blocks": probes, "coframe": probes}
    assert calls == {"build": 2, "blocks": 2, "coframe": 2}
    # the frame records read the chart's own base builds, at the base points of its probes
    assert len(frame_builds) == 2 and all(a is b for a, b in zip(frame_builds, chart_bases))
    spec = get_model(cfg.model)
    if cfg.space == "X":
        chart = XSpaceChart(spec, cfg.branch, cfg.make_profile())
    else:
        chart = PSpaceChart(spec, cfg.branch, cfg.profile["lam"], cfg.profile["mu"])
    base = chart.sample_points(probes, np.random.default_rng(cfg.seed))[:, 3:]
    assert np.array_equal(np.concatenate([bd.point for bd in frame_builds]), base)


# per probe: the adapted coframe and the base frame; a P probe also reads the
# base coframe's compound, for the base Hodge star in the closed torsion
@pytest.mark.parametrize("config, per_probe", [(BS_SPHERE, 2), (P_HYPER, 3)], ids=["X", "P"])
def test_run_reads_changes_of_basis_from_compounds(monkeypatch, config, per_probe):
    probes = cli.PROBE_CHUNK + 3
    cfg = RunConfig.from_dict(dict(config, probes=probes))
    pairing_sign()  # the sign anchor builds its own sphere frame once per process
    calls, rows = Counter(), Counter()

    def refuse(*args, **kwargs):
        raise AssertionError("a minor by determinant")

    def counted(p, k):
        calls["compounds"] += 1
        rows["compounds"] += len(p)  # each call covers one chunk of probes
        return exterior.compounds(p, k)

    monkeypatch.setattr(np.linalg, "det", refuse)
    monkeypatch.setattr(Multivector, "transform", refuse)
    for module in (frames4, chart_module, pspace_module):
        monkeypatch.setattr(module, "compounds", counted)
    assert run(cfg).passed
    assert rows["compounds"] == probes * per_probe
    assert calls["compounds"] == 2 * per_probe


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


@pytest.mark.parametrize(
    "model, profile, seed",
    [
        # c0^2 underflows to 0, so lam^2 = 0
        ("sphere4", {"s": 1.0, "c0": 1e-308, "c1": 1.0}, 1),
        # the rate 2 c0^2 s overflows to inf
        ("sphere4", {"s": 1e308, "c0": 1.0, "c1": 1.0}, 1),
        # r_min = -c1 / (2 c0^2 s) underflows to 0, where the radial factor is negative
        ("complexHyperbolic", {"s": 1.5600458896039148e270, "c0": 1.219933237544069, "c1": -2.7864924743997717e-71}, 24),
    ],
    ids=["c0-underflow", "rate-overflow", "r_min-underflow"],
)
def test_main_rejects_a_profile_whose_constants_overflow(tmp_path, capsys, model, profile, seed):
    cfg = dict(BS_SPHERE, model=model, profile=dict(profile, kind="bs"), probes=3, seed=seed)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and "'profile'" in err, err
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


def _nan_in_second_chunk(monkeypatch, cls, name) -> list:
    """Make the chunk readout ``cls.name`` return NaN residuals at the second
    probe of its second chunk only; returns the chunk sizes it was called on."""
    original = getattr(cls, name)
    sizes = []

    def patched(self, J):
        res = original(self, J)
        sizes.append(len(J.coframe))
        if len(sizes) == 2:
            res = {k: np.where(np.arange(len(v)) == 1, np.nan, v) for k, v in res.items()}
        return res

    monkeypatch.setattr(cls, name, patched)
    return sizes


@pytest.mark.parametrize(
    "config, cls, name, check",
    [
        (BS_SPHERE, XSpaceChart, "chunk_residuals", "x/radius-differential"),
        (P_HYPER, PSpaceChart, "chunk_identities", "p/identities"),
    ],
    ids=["X", "P"],
)
def test_nan_on_a_later_probe_fails_its_record(monkeypatch, config, cls, name, check):
    sizes = _nan_in_second_chunk(monkeypatch, cls, name)
    report = run(RunConfig.from_dict(dict(config, probes=cli.PROBE_CHUNK + 3)))
    assert sizes == [cli.PROBE_CHUNK, 3]  # the NaN sits at probe PROBE_CHUNK + 1
    record = next(r for r in report.records if r.check == check)
    assert np.isnan(record.value) and not record.passed
    assert not report.passed


def test_flag_table_checks_the_catalog_scalar(monkeypatch):
    """A catalog s that is off by 1e-3 fails frames/flag-table, though every
    curvature flag still matches."""

    def shifted(name, **params):
        spec = get_model(name, **params)
        return dataclasses.replace(spec, expected=dataclasses.replace(spec.expected, s_value=spec.expected.s_value + 1e-3))

    monkeypatch.setattr(cli, "get_model", shifted)
    report = run(RunConfig.from_dict(P_HYPER))
    record = next(r for r in report.records if r.check == "frames/flag-table")
    assert record.value == pytest.approx(1e-3, rel=1e-9) and not record.passed


def test_never_calibrated_reads_the_smallest_probe():
    """p/never-calibrated is a lower bound: its value is the smallest |d phi|
    over the probes, each read at its point."""
    cfg = RunConfig.from_dict(dict(P_HYPER, probes=cli.PROBE_CHUNK + 3))
    record = next(r for r in run(cfg).records if r.check == "p/never-calibrated")
    chart = PSpaceChart(get_model(cfg.model), cfg.branch, cfg.profile["lam"], cfg.profile["mu"])
    points = chart.sample_points(cfg.probes, np.random.default_rng(cfg.seed))
    norms = [chart.structure().gnorm(chart.adapted_derivatives(tuple(pt))[0]) for pt in points]
    assert min(norms) < max(norms)  # the probes differ in the last bits, so max would not do
    assert record.value == min(norms)


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


CHUNK_CONFIGS = [
    BS_SPHERE,
    dict(BS_SPHERE, model="complexHyperbolic", profile={"kind": "bs", "s": -1.0, "c0": 1.0, "c1": 1.2}),
    P_HYPER,
    dict(P_HYPER, branch=1),
    dict(P_HYPER, model="fubiniStudy", profile={"kind": "constant", "lam": 1.1, "mu": 0.9}),
    dict(P_HYPER, model="fubiniStudy", branch=1, profile={"kind": "constant", "lam": 1.1, "mu": 0.9}),
]


@pytest.mark.parametrize(
    "config", CHUNK_CONFIGS, ids=["X-sphere4", "X-disk", "P-hyp-", "P-hyp+", "P-fs-", "P-fs+"]
)
def test_reports_do_not_depend_on_the_chunk(monkeypatch, config):
    """A (2c + 3)-probe pass at chunk c gives every per-probe value of the
    same pass at chunk 1, bit for bit; and the reports at the boundaries
    1, c - 1, c, c + 1 and 2c + 3 are the ones the chunk-1 values give."""
    c = cli.PROBE_CHUNK
    probe_values, passes = cli._probe_values, []

    def recorded(*args):
        passes.append((args[3], probe_values(*args)))
        return passes[-1][1]

    monkeypatch.setattr(cli, "_probe_values", recorded)
    counts = (1, c - 1, c, c + 1, 2 * c + 3)
    chunked = {k: run(RunConfig.from_dict(dict(config, probes=k))).to_json() for k in counts}
    monkeypatch.setattr(cli, "PROBE_CHUNK", 1)
    run(RunConfig.from_dict(dict(config, probes=2 * c + 3)))
    (points, ones), (_, by_chunk) = passes[-1], passes[-2]
    assert {n: v.tobytes() for n, v in by_chunk.items()} == {n: v.tobytes() for n, v in ones.items()}

    def prefix(stage, chart, values, pts):
        assert np.array_equal(pts, points[: len(pts)])  # a k-probe draw is the first k of the longest
        return {n: v[: len(pts)] for n, v in ones.items()}

    monkeypatch.setattr(cli, "_probe_values", prefix)
    for k, text in chunked.items():
        assert run(RunConfig.from_dict(dict(config, probes=k))).to_json() == text, k


def _bits(x) -> bytes:
    """Every float of a readout, as bytes."""
    if isinstance(x, dict):
        return b"".join(_bits(v) for _, v in sorted(x.items()))
    if dataclasses.is_dataclass(x):
        return b"".join(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    return np.asarray(x.coef if isinstance(x, Multivector) else x, dtype=float).tobytes()


@pytest.mark.parametrize("config", [BS_SPHERE, P_HYPER], ids=["X", "P"])
def test_a_lone_point_reads_as_its_row_of_a_chunk(config):
    """A per-point readout is the chunk readout of the point's lone build,
    built without a probe axis; it equals probe i of the same readout over a
    loaded chunk, bit for bit."""
    cfg = RunConfig.from_dict(dict(config, probes=cli.PROBE_CHUNK + 3))
    spec, prof = get_model(cfg.model), cfg.to_dict()["profile"]
    # each chart method at one point, and the chunk readout it takes of the point's lone build
    if cfg.space == "X":
        chart = XSpaceChart(spec, cfg.branch, cfg.make_profile())
        names = {"structure_residuals": "chunk_residuals"}
    else:
        chart = PSpaceChart(spec, cfg.branch, prof["lam"], prof["mu"])
        names = {"identity_residuals": "chunk_identities"}
    names |= {"torsion_numeric": "chunk_torsion_numeric", "torsion_closed": "chunk_torsion_closed"}
    points = chart.sample_points(cfg.probes, np.random.default_rng(cfg.seed))
    fb = chart.frame

    def probe(x, i) -> bytes:
        """Probe ``i`` of a chunk readout, as bytes; a value without a probe
        axis is every probe's."""
        if isinstance(x, dict):
            return b"".join(probe(v, i) for _, v in sorted(x.items()))
        if dataclasses.is_dataclass(x):
            return b"".join(probe(getattr(x, f.name), i) for f in dataclasses.fields(x))
        if isinstance(x, Multivector):
            return _bits(x.coef[i] if x.probes else x.coef)
        return _bits(x[i] if np.ndim(x) else x)

    J = chart.load(points, 1)
    bd = J.base
    chunk = [fb.chunk_cartan(bd), frames4.chunk_blocks(bd), *(fb.chunk_duality(bd, b) for b in (1, -1))]
    chunk += [getattr(chart, name)(J) for name in names.values()]

    def lone(pt) -> bytes:
        x = tuple(pt[3:])
        got = [fb.cartan_residual(x), fb.singer_thorpe(x), *(fb.duality_residuals(x, b) for b in (1, -1))]
        return b"".join(map(_bits, got + [getattr(chart, name)(tuple(pt)) for name in names]))

    assert [lone(pt) for pt in points] == [b"".join(probe(x, i) for x in chunk) for i in range(len(points))]
    # and the lone builds carry no probe axis
    assert chart.jets(tuple(points[0]), 1).phi.coef.ndim == 2


def _fail_at(monkeypatch, owner, name, target):
    """Make ``owner.name`` raise for any chunk of points holding ``target``."""
    original = getattr(owner, name)

    def patched(self, points, order):
        if any(np.array_equal(row, target) for row in np.atleast_2d(points)):
            raise FloatingPointError("injected failure")
        return original(self, points, order)

    monkeypatch.setattr(owner, name, patched)


@pytest.mark.parametrize("stage", ["frame", "chart"])
def test_failure_in_a_later_chunk_names_its_probe(tmp_path, capsys, monkeypatch, stage):
    bad = cli.PROBE_CHUNK + 1
    cfg = RunConfig.from_dict(dict(BS_SPHERE, probes=2 * cli.PROBE_CHUNK + 3))
    chart = XSpaceChart(get_model(cfg.model), cfg.branch, cfg.make_profile())
    target = chart.sample_points(cfg.probes, np.random.default_rng(cfg.seed))[bad]
    if stage == "frame":
        _fail_at(monkeypatch, ScalarField, "jet", target[3:])
        where = f"frame records, probe {bad}: injected failure"
    else:
        _fail_at(monkeypatch, XSpaceChart, "_chunk", target)
        where = f"X records, probe {bad}: injected failure"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert main(["run", "--config", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == f"numerical failure: {where}\n"
