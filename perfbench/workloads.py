"""Seeded workload generator and the output check behind ``failed_frac``.

A workload is an endless sequence of rounds; a round is a fixed list of
(model, branch) scenarios whose numeric parameters are drawn from the seed.
The order and mix of scenarios in a round never depend on the seed, so runs
with different seeds do the same kind of work.  The program only ever sees
the config dicts; the expected check ids and closed-form labels are stated
here, from the catalog facts of the paper, independently of the runner.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

WHY = {
    "x-sweep": (
        "2-form bundle runs, 100 probes each, BS s >= 0: per-probe frames4, xspace, jets and "
        "exterior work with no radial work, so batching over probes shows here"
    ),
    "p-sweep": (
        "coframe bundle runs, 25 probes each, all models and branches plus the nearly-parallel "
        "and pure-W3 tunings: Multivector-heavy identity block and rotation jets"
    ),
    "x-disk": (
        "disk-bundle X runs, 5 probes each: the radial Riemann oracle and other fixed per-run "
        "costs dominate, so per-probe batching should barely move it"
    ),
}
WORKLOADS = tuple(WHY)

# name -> (s = Scal/12 at kappa = 1, Einstein, self-dual, anti-self-dual)
MODEL_FACTS = {
    "flat": (0.0, True, True, True),
    "sphere4": (1.0, True, True, True),
    "hyperbolic4": (-1.0, True, True, True),
    "fubiniStudy": (1.0, True, True, False),
    "complexHyperbolic": (-1.0, True, True, False),
    "productS2H2": (0.0, False, True, True),
}

# the six duality-admissible (model, branch) pairs of the 2-form bundle
X_PAIRS = (
    ("sphere4", -1),
    ("hyperbolic4", -1),
    ("fubiniStudy", -1),
    ("complexHyperbolic", -1),
    ("flat", 1),
    ("productS2H2", 1),
)
DISK_PAIRS = (("hyperbolic4", -1), ("complexHyperbolic", -1), ("hyperbolic4", 1))
P_TUNED = (
    ("sphere4", -1, "nearly"),
    ("hyperbolic4", -1, "w3"),
    ("complexHyperbolic", -1, "w3"),
    ("complexHyperbolic", 1, "w3"),
)

LABELS = {
    "parallel": "parallel",
    "nearly": "nearly parallel candidate",
    "w3": "pure W3, cocalibrated",
}

FRAME_CHECKS = frozenset(
    {
        "frames/cartan",
        "frames/duality-structure",
        "frames/bianchi",
        "frames/block-symmetry",
        "frames/trace-identity",
        "frames/flag-table",
    }
)
X_CHECKS = frozenset(
    {
        "x/radius-differential",
        "x/taut-2-form",
        "x/beta-differential",
        "x/structure-system",
        "x/torsion-closed-vs-numeric",
        "x/tau0-vanishes",
        "x/lemma-two-of-three",
    }
)
P_CHECKS = frozenset(
    {
        "p/identities",
        "p/cocalibrated",
        "p/never-calibrated",
        "p/tau0-closed",
        "p/torsion-closed-vs-numeric",
    }
)

X_PROBES, P_PROBES, DISK_PROBES = 100, 25, 5


@dataclass(frozen=True)
class Scenario:
    """One run config plus what its report must contain."""

    config: dict
    tuning: str | None = None  # "parallel", "nearly", "w3" or None

    @property
    def probes(self) -> int:
        return self.config["probes"]

    @property
    def label(self) -> str | None:
        return LABELS.get(self.tuning)

    def expected_checks(self) -> frozenset:
        cfg = self.config
        _, einstein, sd, asd = MODEL_FACTS[cfg["model"]]
        if cfg["space"] == "X":
            extra = set()
            if self.tuning == "parallel":
                extra.add("x/parallel")
            if cfg["profile"]["s"] < 0:
                extra.add("x/radial-incompleteness")
            return FRAME_CHECKS | X_CHECKS | extra
        admissible = einstein and (asd if cfg["branch"] == 1 else sd)
        extra = set()
        if self.tuning == "nearly":
            extra.add("p/nearly-parallel")
        if self.tuning == "w3":
            extra.add("p/pure-w3")
            if admissible:
                extra.add("p/w3-closed-form")
        return FRAME_CHECKS | P_CHECKS | extra


def _bs(model, branch, s, rng, probes, tuning=None) -> Scenario:
    profile = {"kind": "bs", "s": s, "c0": rng.uniform(0.7, 1.3), "c1": rng.uniform(0.7, 1.4)}
    config = {
        "model": model,
        "space": "X",
        "branch": branch,
        "profile": profile,
        "probes": probes,
        "seed": rng.randrange(2**31),
    }
    return Scenario(config, tuning)


def _constant(model, branch, lam, mu, rng, tuning=None) -> Scenario:
    config = {
        "model": model,
        "space": "P",
        "branch": branch,
        "profile": {"kind": "constant", "lam": lam, "mu": mu},
        "probes": P_PROBES,
        "seed": rng.randrange(2**31),
    }
    return Scenario(config, tuning)


def _x_sweep_round(k: int, rng) -> list:
    out = []
    for model, branch in X_PAIRS:
        s_model, einstein, _, _ = MODEL_FACTS[model]
        # even rounds take the s-matched (parallel) profile wherever s >= 0 allows it
        if einstein and s_model >= 0 and k % 2 == 0:
            out.append(_bs(model, branch, s_model, rng, X_PROBES, "parallel"))
        else:
            out.append(_bs(model, branch, rng.uniform(0.0, 1.5), rng, X_PROBES))
    return out


def _p_sweep_round(k: int, rng) -> list:
    out = []
    for model in MODEL_FACTS:
        for branch in (1, -1):
            lam, mu = rng.uniform(0.7, 1.4), rng.uniform(0.7, 1.6)
            out.append(_constant(model, branch, lam, mu, rng))
    for model, branch, tuning in P_TUNED:
        s_model = MODEL_FACTS[model][0]
        lam = rng.uniform(0.7, 1.4)
        # nearly parallel: mu^2 = 5 s lam^2; pure W3: mu^2 = -2 s lam^2
        factor = 5.0 * s_model if tuning == "nearly" else -2.0 * s_model
        out.append(_constant(model, branch, lam, math.sqrt(factor) * lam, rng, tuning))
    return out


def _x_disk_round(k: int, rng) -> list:
    return [
        _bs(model, branch, MODEL_FACTS[model][0], rng, DISK_PROBES, "parallel")
        for model, branch in DISK_PAIRS
    ]


_ROUNDS = {"x-sweep": _x_sweep_round, "p-sweep": _p_sweep_round, "x-disk": _x_disk_round}

# configs in the traced pass: whole rounds, so its counts are exact for any seed
TRACED_ROUNDS = {"x-sweep": 1, "p-sweep": 1, "x-disk": 2}


def rounds(workload: str, seed: int):
    """Endless rounds of scenarios for ``workload``, reproducible from ``seed``."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    k = 0
    while True:
        yield _ROUNDS[workload](k, rng)
        k += 1


def traced_scenarios(workload: str, seed: int) -> list:
    """The fixed list of scenarios a traced run executes."""
    gen = rounds(workload, seed)
    return [sc for _ in range(TRACED_ROUNDS[workload]) for sc in next(gen)]


def check_report(text: str, scenario: Scenario) -> list:
    """Problems with one JSON report; an empty list means the output is correct.

    Every record must pass and agree with its own value and tolerance, the
    set of check ids must be exactly the one the scenario selects, and a
    tuned scenario must carry its closed-form label.
    """
    doc = json.loads(text)
    problems = []
    cfg = doc.get("config", {})
    for key in ("model", "space", "branch", "profile", "probes", "seed"):
        if cfg.get(key) != scenario.config[key]:
            problems.append(f"config.{key} echoed as {cfg.get(key)!r}")
    if doc.get("pass") is not True:
        problems.append("report does not pass")
    ids = [rec.get("check") for rec in doc.get("records", [])]
    if len(ids) != len(set(ids)):
        problems.append("duplicate check ids")
    expected = scenario.expected_checks()
    if set(ids) != expected:
        missing = sorted(expected - set(ids))
        extra = sorted(set(ids) - expected)
        problems.append(f"check ids differ: missing {missing}, unexpected {extra}")
    for rec in doc.get("records", []):
        value, tol = rec.get("maxResidual"), rec.get("tolerance")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{rec.get('check')}: value {value!r} is not finite")
            continue
        holds = value > tol if rec.get("comparison") == ">" else value <= tol
        if rec.get("pass") is not True or not holds:
            problems.append(f"{rec.get('check')}: fails ({value!r} vs {tol!r})")
    if scenario.label is not None and doc.get("torsionLabel") != scenario.label:
        problems.append(f"label {doc.get('torsionLabel')!r}, closed form gives {scenario.label!r}")
    return problems
