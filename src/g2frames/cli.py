"""Configuration-driven verification runner.

A run selects a base model, a bundle (2-form bundle X or coframe bundle P),
a branch, and a scale profile, then executes every check relevant to that
scenario over the chart's seeded probe points.  Each record names the
identity it verifies via a stable anchor string, so independent
implementations can be compared field by field.  Probes run in chunks: the
chart's own frame bundle builds a chunk's base points in one batched pass,
the chart the chunk in another, and each pass returns its readouts as
``(probes,)`` arrays, so each probe builds its base frame once.  Each named
array, joined over the chunks, is reduced with one NaN-propagating ``np.max``
(the never-calibrated bound takes ``np.min``): a report is deterministic for
a fixed seed and a NaN on any probe fails its record.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from .bundle7.chart import torsion_gap
from .bundle7.profiles import Profile, bs_profile, constant_profile, two_of_three_report
from .bundle7.pspace import PSpaceChart
from .bundle7.radial import radius_length, radius_length_riemann
from .bundle7.xspace import EDGE_MARGIN, XSpaceChart
from .exterior import Multivector
from .frames4 import pairing_sign
from .g2point import classify_norms, standard_phi
from .models import MODEL_NAMES, get_model


class ConfigError(ValueError):
    pass


class NumericalFailure(RuntimeError):
    """A numerical error of a run, prefixed with the stage (and probe) where it
    happened.  Every failure of the numerics on a valid config is an
    ArithmeticError (Python's float errors and the package's own numerical
    errors): it exits 1 with one line, no traceback."""


@contextmanager
def _stage(where: str):
    try:
        yield
    except ArithmeticError as exc:
        raise NumericalFailure(f"{where}: {exc}") from exc


_CONFIG_KEYS = {
    "model": str,
    "params": dict,
    "space": str,
    "branch": int,
    "profile": dict,
    "probes": int,
    "seed": int,
    "tol": float,
    "report": (str, type(None)),
}

_PROFILE_KEYS = {
    "bs": {"s": float, "c0": float, "c1": float},
    "constant": {"lam": float, "mu": float},
}

_PARAM_KEYS = {"kappa": float}

# largest probe count, 1,000 times the largest benchmark run (100 probes)
MAX_PROBES = 100_000

_TYPE_NAMES = {
    int: "an integer",
    float: "a finite number",
    str: "a string",
    dict: "an object",
    (str, type(None)): "a string or null",
}


def _check_type(key: str, value, kind):
    """Raise a ConfigError naming ``key`` unless ``value`` has the declared type."""
    if kind in (int, float) and isinstance(value, bool):
        ok = False
    elif kind is int:
        ok = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    elif kind is float:
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"invalid value for key {key!r}: {value!r} is not {_TYPE_NAMES[kind]}")


@dataclass(frozen=True)
class RunConfig:
    model: str
    space: str
    branch: int
    profile: dict
    params: dict = field(default_factory=dict)
    probes: int = 20
    seed: int = 0
    tol: float = 1e-8
    report: str | None = None

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        for key in raw:
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
        for key in ("model", "space", "branch", "profile"):
            if key not in raw:
                raise ConfigError(f"missing config key {key!r}")
        for key, value in raw.items():
            _check_type(key, value, _CONFIG_KEYS[key])
        if raw["model"] not in MODEL_NAMES:
            raise ConfigError(f"invalid value for key 'model': {raw['model']!r}")
        if raw["space"] not in ("X", "P"):
            raise ConfigError(f"invalid value for key 'space': {raw['space']!r} (use 'X' or 'P')")
        if raw["branch"] not in (1, -1):
            raise ConfigError(f"invalid value for key 'branch': {raw['branch']!r} (use 1 or -1)")
        if raw["space"] == "X":
            exp = get_model(raw["model"]).expected
            if not (exp.asd if raw["branch"] == 1 else exp.sd):
                side = "anti-self-dual (W+ = 0)" if raw["branch"] == 1 else "self-dual (W- = 0)"
                raise ConfigError(
                    f"invalid value for key 'branch': 2-form bundle runs on branch "
                    f"{int(raw['branch']):+d} need the base model to be {side}; {raw['model']!r} is not"
                )
        prof = raw["profile"]
        kind = prof.get("kind")
        if not isinstance(kind, str) or kind not in _PROFILE_KEYS:
            raise ConfigError(f"invalid value for key 'profile.kind': {kind!r}")
        for pkey in prof:
            if pkey != "kind" and pkey not in _PROFILE_KEYS[kind]:
                raise ConfigError(f"unknown config key 'profile.{pkey}'")
        for pkey, ptype in _PROFILE_KEYS[kind].items():
            if pkey not in prof:
                raise ConfigError(f"missing config key 'profile.{pkey}'")
            _check_type(f"profile.{pkey}", prof[pkey], ptype)
        for pkey, value in raw.get("params", {}).items():
            if pkey not in _PARAM_KEYS:
                raise ConfigError(f"unknown config key 'params.{pkey}'")
            _check_type(f"params.{pkey}", value, _PARAM_KEYS[pkey])
            if value <= 0:
                raise ConfigError(f"invalid value for key 'params.{pkey}': must be positive")
            if pkey not in get_model(raw["model"]).params:
                raise ConfigError(f"invalid value for key 'params.{pkey}': {raw['model']!r} takes no {pkey}")
        cfg = RunConfig(
            model=raw["model"],
            space=raw["space"],
            branch=int(raw["branch"]),
            profile=dict(prof),
            params=dict(raw.get("params", {})),
            probes=int(raw.get("probes", 20)),
            seed=int(raw.get("seed", 0)),
            tol=float(raw.get("tol", 1e-8)),
            report=raw.get("report"),
        )
        if not 1 <= cfg.probes <= MAX_PROBES:
            raise ConfigError(f"invalid value for key 'probes': must be between 1 and {MAX_PROBES}")
        if cfg.seed < 0:
            raise ConfigError("invalid value for key 'seed': must be >= 0")
        if cfg.tol <= 0:
            raise ConfigError("invalid value for key 'tol': must be positive")
        try:
            cfg.make_profile()
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(f"invalid value for key 'profile': {exc}") from None
        try:
            get_model(cfg.model, **cfg.params)
        except ArithmeticError as exc:
            msg = f"building {cfg.model!r} fails: {exc}"
            raise ConfigError(f"invalid value for key 'params.kappa': {msg}") from None
        return cfg

    def to_dict(self) -> dict:
        return asdict(self)

    def make_profile(self) -> Profile:
        kind = self.profile["kind"]
        if kind == "bs":
            return bs_profile(self.profile["s"], self.profile["c0"], self.profile["c1"])
        return constant_profile(self.profile["lam"], self.profile["mu"])


# check id -> anchor: the identity the check verifies
SUITES = {
    "frames/cartan": "first structure equation: d(theta) + theta^omega = 0",
    "frames/duality-structure": "induced connection: d(eta) = eta^omega on the duality bundle",
    "frames/bianchi": "algebraic Bianchi identity: eta^rho = 0",
    "frames/block-symmetry": "symmetry of the diagonal curvature blocks",
    "frames/trace-identity": "tr A = tr C = Scal/4",
    "frames/flag-table": "Einstein iff B = 0; duality and scalar flags vs catalog",
    "x/radius-differential": "dr = 2 f a^t",
    "x/taut-2-form": "d(eta a^t) = eta^f^t",
    "x/beta-differential": "d(beta) = h rho a^t",
    "x/structure-system": "closed differential system for d(phi), d(psi) vs jet evaluation",
    "x/torsion-closed-vs-numeric": "closed torsion forms vs numeric decomposition",
    "x/tau0-vanishes": "no conformal-scalar torsion on the 2-form bundle",
    "x/parallel": "radial scales solving both first-order conditions give a torsion-free structure",
    "x/lemma-two-of-three": "two of {lam*mu const, tau1 = 0, tau2 = 0} imply the third",
    "x/radial-incompleteness": "finite fiber-radius length on the disk bundle",
    "p/identities": "algebraic and differential identity block on the coframe bundle",
    "p/cocalibrated": "d(psi) = 0 for constant scales: always cocalibrated",
    "p/never-calibrated": "d(phi) bounded away from zero: never calibrated",
    "p/tau0-closed": "tau0 = (+-6/7 lam mu^2)(mu^2 + 2 s lam^2)",
    "p/torsion-closed-vs-numeric": "closed tau3 vs numeric decomposition",
    "p/nearly-parallel": "d(phi) = (+-6/5 lam) psi at the mu^2 = 5 s lam^2 tuning",
    "p/pure-w3": "tau0 = 0 and pure W3 label at the Scal = -6 mu^2/lam^2 tuning",
    "p/w3-closed-form": "tau3 = (+-1/2 lam)(phi - 7 lam^3 beta) for Einstein duality models",
}


@dataclass
class Record:
    check: str
    anchor: str
    value: float
    tolerance: float
    passed: bool
    comparison: str = "<="

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "anchor": self.anchor,
            # strict JSON has no NaN or Infinity; such a value fails its record anyway
            "maxResidual": self.value if math.isfinite(self.value) else None,
            "tolerance": self.tolerance,
            "comparison": self.comparison,
            "pass": self.passed,
        }


@dataclass
class Report:
    config: dict
    records: list
    environment: dict
    torsion_label: str | None
    passed: bool

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "records": [r.to_dict() for r in self.records],
            "environment": self.environment,
            "torsionLabel": self.torsion_label,
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _record(check: str, value: float, tol: float, comparison: str = "<=") -> Record:
    ok = value <= tol if comparison == "<=" else value > tol
    return Record(
        check=check,
        anchor=SUITES[check],
        value=float(value),
        tolerance=float(tol),
        passed=bool(ok),
        comparison=comparison,
    )


_NORM_KEYS = ("tau0", "tau1", "tau2", "tau3")


# probes per batched pass: the largest chunk whose two memory-test ratios (traced peak at 100 probes over that
# at 10, X and P) stay at least 7% under the test's 3x bound.  Chunk: X ratio, P ratio, x-sweep peak RSS (MB) and
# probes/s (10 s perfbench runs, seed 5, 2-core x86-64, median of 5; probes/s spread by about 15%): 25: 1.99,
# 2.14, 42.87, 1115; 30: 2.30, 2.50, 43.23, 1158; 34: 2.54, 2.78, 43.55, 1246; 35: 2.61, 2.86, 43.57, 1300;
# 40: 2.92, 3.22 (over the bound), 43.93, 1244.  One x-sweep round in one process (best of 7): 25: 98-100 ms per
# config, 34: 88 ms.  Peak RSS at 34 reads +1.6% over 25, within the benchmark's 10% bound.
PROBE_CHUNK = 34


def _chunk_values(stage: str, chart, values, points, first: int) -> dict:
    """The named values at each probe of a chunk (or at a lone point) numbered
    from ``first``: the frame pass, then the chart pass (``values`` of the
    chart build).  Both builds are dropped when the pass ends."""
    frame = chart.frame
    try:
        with _stage(f"frame records, probe {first}"):
            out = {f"frames/{k}": v for k, v in frame.chunk_values(frame.load(points[..., 3:], 2), chart.model.expected).items()}
        with _stage(f"{stage}, probe {first}"):
            return out | values(chart.load(points, 1))
    finally:
        chart.clear()
        frame.clear()


def _probe_values(stage: str, chart, values, points) -> dict:
    """Each named value at every probe, in probe order.  A chunk whose pass raises
    runs again at its probes as lone points, so an error names the stage and
    probe (from 0) where a one-at-a-time run would; if none fails alone, the
    chunk's error is raised."""
    chunks = []
    for first in range(0, len(points), PROBE_CHUNK):
        chunk = points[first : first + PROBE_CHUNK]
        try:
            chunks.append(_chunk_values(stage, chart, values, chunk, first))
        except NumericalFailure:
            for i in range(len(chunk)):
                _chunk_values(stage, chart, values, chunk[i], first + i)
            raise
    return {name: np.concatenate([c[name] for c in chunks]) for name in chunks[0]}


def _frame_records(worst, tol) -> list:
    return [
        _record(check, value, 1e-7 if check == "frames/flag-table" else tol)
        for check, value in worst.items()
        if check.startswith("frames/")
    ]


def _x_records(cfg: RunConfig, spec, chart: XSpaceChart, rng):
    try:
        points = chart.sample_points(cfg.probes, rng)
    except ValueError as exc:  # the chart's SamplingError, the one error sampling raises
        raise ConfigError(f"invalid value for key 'profile': no probe in its domain ({exc})") from None

    def values(J):
        res, tn, tc = chart.chunk_residuals(J), chart.chunk_torsion_numeric(J), chart.chunk_torsion_closed(J)
        return {
            "dr": res["dr"],
            "d_eta_at": res["d_eta_at"],
            "dbeta": np.maximum(res["dbeta"], res["d_eta_ht"]),
            "system": np.maximum(res["dphi_system"], res["dpsi_system"]),
            "gap": torsion_gap(tc, tn),
            **tn.norms(J.s7.g_diag),
        }

    worst = {name: float(np.max(v)) for name, v in _probe_values("X records", chart, values, points).items()}
    norms = {k: worst[k] for k in _NORM_KEYS}
    records = _frame_records(worst, cfg.tol) + [
        _record("x/radius-differential", worst["dr"], 1e-9),
        _record("x/taut-2-form", worst["d_eta_at"], cfg.tol),
        _record("x/beta-differential", worst["dbeta"], cfg.tol),
        _record("x/structure-system", worst["system"], cfg.tol),
        _record("x/torsion-closed-vs-numeric", worst["gap"], 1e-6),
        _record("x/tau0-vanishes", norms["tau0"], 1e-6),
    ]
    label = classify_norms(norms).label

    prof = chart.profile
    if prof.kind == "bs":
        s_prof = prof.params["s"]
        # off the edges as the probes are: lam blows up where r_min > 0
        lo = prof.r_min * (1.0 + EDGE_MARGIN)
        samples = np.linspace(lo, min(prof.r_max, prof.r_min + 8.0), 100)[:-1]
        lemma = two_of_three_report(prof, s_prof, samples)
        records.append(_record("x/lemma-two-of-three", np.max(list(lemma.values())), 1e-8))
        if abs(s_prof - spec.expected.s_value) < 1e-12 and spec.expected.einstein:
            records.append(_record("x/parallel", np.max(list(norms.values())), 1e-6))
        if prof.r0 is not None:
            length = radius_length(prof, prof.r0)
            oracle = radius_length_riemann(prof, prof.r0)
            records.append(_record("x/radial-incompleteness", abs(length - oracle), 1e-6))
    return records, label


def _p_records(cfg: RunConfig, spec, chart: PSpaceChart, rng):
    points = chart.sample_points(cfg.probes, rng)
    lam, mu, b = chart.lam, chart.mu, float(chart.branch)
    s7 = chart.structure()
    w3_pred = None
    if spec.expected.einstein:
        w3_pred = (b / (2.0 * lam)) * (s7.phi - 7.0 * lam**3 * Multivector.basis(7, (1, 2, 3)))

    def values(J):
        ids = chart.chunk_identities(J)
        (dphi, dpsi), tn, tc = J.adapted, chart.chunk_torsion_numeric(J), chart.chunk_torsion_closed(J)
        nearly = (dphi - b * (6.0 / (5.0 * lam)) * s7.psi).sup()
        return {
            "identities": np.max(list(ids.values()), axis=0),
            "dpsi": s7.gnorm(dpsi),
            "dphi": s7.gnorm(dphi),
            "tau0_gap": abs(tc.tau0 - tn.tau0),
            "gap": torsion_gap(tc, tn),
            "nearly": nearly,
            "tau3_w3": np.zeros_like(nearly) if w3_pred is None else (tn.tau3 - w3_pred).sup(),
            **tn.norms(s7.g_diag),
        }

    by_probe = _probe_values("P records", chart, values, points)
    worst = {name: float(np.max(v)) for name, v in by_probe.items()}
    records = _frame_records(worst, cfg.tol) + [
        _record("p/identities", worst["identities"], cfg.tol),
        _record("p/cocalibrated", worst["dpsi"], 1e-9),
        _record("p/never-calibrated", np.min(by_probe["dphi"]), 1e-3, comparison=">"),
        _record("p/tau0-closed", worst["tau0_gap"], 1e-8),
        _record("p/torsion-closed-vs-numeric", worst["gap"], 1e-6),
    ]
    s_model = spec.expected.s_value
    duality_ok = spec.expected.asd if chart.branch == 1 else spec.expected.sd
    if abs(mu**2 - 5.0 * s_model * lam**2) < 1e-9 and spec.expected.einstein and duality_ok:
        records.append(_record("p/nearly-parallel", worst["nearly"], 1e-8))
    norms = {k: worst[k] for k in _NORM_KEYS}
    cls = classify_norms(norms)
    if abs(mu**2 + 2.0 * s_model * lam**2) < 1e-9:
        w3_err = 0.0 if (cls.pure == "W3" and cls.cocalibrated) else 1.0
        records.append(_record("p/pure-w3", np.max([norms["tau0"], w3_err]), 1e-8))
        if spec.expected.einstein and duality_ok:
            records.append(_record("p/w3-closed-form", worst["tau3_w3"], 1e-8))
    return records, cls.label


def run(config: RunConfig) -> Report:
    """Execute the suite selected by the configuration and build the report."""
    spec = get_model(config.model, **config.params)
    rng = np.random.default_rng(config.seed)
    if config.space == "X":
        with _stage("X records"):
            chart = XSpaceChart(spec, config.branch, config.make_profile())
            records, label = _x_records(config, spec, chart, rng)
    else:
        prof = config.profile
        if prof["kind"] != "constant":
            raise ConfigError(
                "invalid value for key 'profile.kind': coframe-bundle runs need constant scales"
            )
        with _stage("P records"):
            chart = PSpaceChart(spec, config.branch, prof["lam"], prof["mu"])
            records, label = _p_records(config, spec, chart, rng)
    environment = {
        "seed": config.seed,
        "probeBox": [list(b) for b in spec.safe_box],
        "conventions": {
            "curvaturePairingSign": pairing_sign(),
            "w14EigenvaluePlus": standard_phi(1.0, 1.0, 1).w14_eigenvalue,
            "w14EigenvalueMinus": standard_phi(1.0, 1.0, -1).w14_eigenvalue,
            "orientation": "fiber-first, o = f123 ^ e4567",
            "orientationFlips": [],
        },
    }
    return Report(
        config=config.to_dict(),
        records=records,
        environment=environment,
        torsion_label=label,
        passed=all(r.passed for r in records),
    )


def list_suites() -> str:
    lines = ["available checks (check id: verified identity):"]
    for check, anchor in SUITES.items():
        lines.append(f"  {check}: {anchor}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="g2frames", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a verification run")
    runp.add_argument("--config", required=True, help="path to a JSON run configuration")
    runp.add_argument("--seed", type=int, default=None, help="override the config seed")
    runp.add_argument("--probes", type=int, default=None, help="override the probe count")
    runp.add_argument("--tol", type=float, default=None, help="override the base tolerance")
    runp.add_argument("--json", dest="json_out", default=None, help="write the JSON report here")
    runp.add_argument("--quiet", action="store_true", help="suppress per-record lines")
    sub.add_parser("list-suites", help="enumerate checks and their anchors")
    args = parser.parse_args(argv)

    if args.command == "list-suites":
        print(list_suites())
        return 0

    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"config error: --config {args.config!r}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(raw, dict):
        print(f"config error: the top level is {type(raw).__name__}, not a JSON object", file=sys.stderr)
        return 2
    overrides = {"seed": args.seed, "probes": args.probes, "tol": args.tol}
    for key, val in overrides.items():
        if val is not None:
            raw[key] = val
    try:
        config = RunConfig.from_dict(raw)
        # a non-finite value fails its record; numpy need not warn about it too
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            report = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        for rec in report.records:
            stamp = "pass" if rec.passed else "FAIL"
            rel = "<=" if rec.comparison == "<=" else ">"
            print(f"[{stamp}] {rec.check}: {rec.value:.3e} {rel} {rec.tolerance:.1e}  ({rec.anchor})")
        print(f"label: {report.torsion_label}")
    out_path = args.json_out or config.report
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(report.to_json() + "\n")
        except OSError as exc:
            where = "--json" if args.json_out else "key 'report'"
            print(f"config error: invalid value for {where}: cannot write the report: {exc}", file=sys.stderr)
            return 2
    if not report.passed:
        failing = next(r for r in report.records if not r.passed)
        print(f"FAILED: {failing.check} = {failing.value:.6e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
