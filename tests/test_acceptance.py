"""Acceptance criteria.

Each test implements one numbered criterion at its stated tolerance and
prints a single pass/fail line (run with ``pytest -s`` to see them).  The
wall-clock budget is checked by the final criterion.
"""

import json
import time

import numpy as np
import pytest

from g2frames.bundle7.chart import torsion_gap
from g2frames.bundle7.profiles import bs_profile, random_smooth_profile
from g2frames.bundle7.pspace import PSpaceChart
from g2frames.bundle7.radial import geodesic_trace, radius_length, radius_length_riemann
from g2frames.bundle7.xspace import XSpaceChart
from g2frames.cli import RunConfig, run
from g2frames.exterior import Multivector
from g2frames.g2point import classify, duality_pairing, metric_from_phi, standard_phi
from g2frames.frames4 import predicates
from g2frames.models import MODEL_NAMES, expected_table, get_model

_T0 = time.perf_counter()

X_COMBOS = [
    ("sphere4", -1),
    ("hyperbolic4", -1),
    ("fubiniStudy", -1),
    ("complexHyperbolic", -1),
    ("flat", 1),
    ("productS2H2", 1),
]


def _report(number, passed, detail):
    print(f"criterion {number:02d} [{'PASS' if passed else 'FAIL'}] {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_frame_calculus_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = {"cartan": 0.0, "bianchi": 0.0, "asym": 0.0, "trace": 0.0}
    for name in MODEL_NAMES:
        spec = get_model(name)
        fb = spec.bundle()
        for pt in spec.sample_points(50, rng):
            pt = tuple(pt)
            worst["cartan"] = max(worst["cartan"], fb.cartan_residual(pt))
            for branch in (1, -1):
                res = fb.duality_residuals(pt, branch)
                worst["bianchi"] = max(worst["bianchi"], res["bianchi"])
            st = fb.singer_thorpe(pt)
            worst["asym"] = max(worst["asym"], st.sym_residual)
            worst["trace"] = max(worst["trace"], st.trace_residual)
    elapsed = time.perf_counter() - start
    top = max(worst.values())
    _report(
        1,
        top < 1e-8 and elapsed < 10.0,
        f"6 models x 50 points: max residual {top:.2e} (< 1e-8), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_02_model_flag_table():
    rng = np.random.default_rng(102)
    table = expected_table()
    ok = True
    worst_s = 0.0
    for name, exp in table.items():
        spec = get_model(name)
        fb = spec.bundle()
        for pt in spec.sample_points(25, rng):
            st = fb.singer_thorpe(tuple(pt))
            flags = predicates(st)
            ok &= (
                flags.einstein == exp.einstein
                and flags.sd == exp.sd
                and flags.asd == exp.asd
                and flags.scalar_flat == exp.scalar_flat
                and int(np.sign(round(st.s, 9))) == exp.s_sign
            )
            worst_s = max(worst_s, abs(st.s - exp.s_value))
    _report(2, ok and worst_s < 1e-7, f"all flags exact, max |s - expected| = {worst_s:.2e} (< 1e-7)")


def test_criterion_03_metric_from_phi():
    rng = np.random.default_rng(103)
    worst = 0.0
    flagged = 0
    f = [Multivector.basis(7, (i,)) for i in (1, 2, 3)]
    for trial in range(50):
        lam, mu = rng.uniform(0.4, 2.2, size=2)
        branch = 1 if trial % 2 else -1
        s7 = standard_phi(lam, mu, branch)
        rec = metric_from_phi(s7.phi)
        worst = max(
            worst,
            float(np.max(np.abs(rec.gram - np.diag(s7.g_diag)))),
            abs(rec.m - lam**3 * mu**4),
        )
        e = duality_pairing(branch)
        mixed = f[0].wedge(e[0]) + f[1].wedge(e[1]) - f[2].wedge(e[2])
        flipped = lam**3 * f[0].wedge(f[1]).wedge(f[2]) - branch * lam * mu**2 * mixed
        if metric_from_phi(flipped).signature == (3, 4):
            flagged += 1
    _report(
        3,
        worst < 1e-10 and flagged == 50,
        f"50 trials: max recovery error {worst:.2e} (< 1e-10), split signature flagged {flagged}/50",
    )


def test_criterion_04_x_torsion_theorem():
    gaps, tau0s = [], []
    for name, branch in X_COMBOS:
        spec = get_model(name)
        for trial in range(10):
            prof = random_smooth_profile(np.random.default_rng(1000 + 17 * trial))
            chart = XSpaceChart(spec, branch, prof)
            rng = np.random.default_rng(104 + trial)
            points = chart.sample_points(20, rng)
            J = chart.load(points, 1)  # one batched build, read over its probes as the run reads it
            tn = chart.chunk_torsion_numeric(J)
            gaps.append(torsion_gap(chart.chunk_torsion_closed(J), tn))
            tau0s.append(np.abs(tn.tau0))
    worst_gap, worst_tau0 = float(np.max(gaps)), float(np.max(tau0s))  # a NaN propagates
    _report(
        4,
        worst_gap < 1e-6 and worst_tau0 < 1e-6,
        "6 duality-admissible charts x 10 profiles x 20 points: "
        f"max closed-vs-numeric gap {worst_gap:.2e} (< 1e-6), max |tau0| {worst_tau0:.2e}",
    )


def test_criterion_05_parallel_profiles():
    cases = [
        ("sphere4", bs_profile(1.0, 1.0, 1.0)),
        ("fubiniStudy", bs_profile(1.0, 1.1, 0.9)),
        ("hyperbolic4", bs_profile(-1.0, 1.0, 1.0)),
        ("complexHyperbolic", bs_profile(-1.0, 0.9, 1.2)),
    ]
    worst = 0.0
    for name, prof in cases:
        chart = XSpaceChart(get_model(name), -1, prof)
        rng = np.random.default_rng(105)
        for pt in chart.sample_points(20, rng, a_max=0.6):
            t = chart.torsion_numeric(tuple(pt))
            s7 = chart.structure(tuple(pt))
            worst = max(worst, max(t.norms(s7.g_diag).values()))
    _report(5, worst < 1e-6, f"flat-structure profiles on 4 Einstein bases: max torsion {worst:.2e} (< 1e-6)")


def test_criterion_06_lemma_two_of_three():
    from g2frames.bundle7.profiles import (
        profile_from_const_and_tau2,
        profile_from_tau1_and_tau2,
        two_of_three_report,
    )

    rng = np.random.default_rng(106)
    builders = (bs_profile, profile_from_const_and_tau2, profile_from_tau1_and_tau2)
    worst = 0.0
    for _ in range(20):
        s = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0))
        c0 = float(rng.uniform(0.4, 2.0))
        c1 = float(rng.uniform(0.4, 2.0))
        for build in builders:
            prof = build(s, c0, c1)
            hi = prof.r_min + 8.0 if not np.isfinite(prof.r_max) else prof.r_max
            samples = np.linspace(prof.r_min, hi, 102)[1:-1]
            worst = max(worst, max(two_of_three_report(prof, s, samples).values()))
    _report(6, worst < 1e-8, f"20 parameter draws x 3 pair choices x 100 samples: max residual {worst:.2e} (< 1e-8)")


def test_criterion_07_p_headline():
    worst_dpsi = 0.0
    min_dphi = np.inf
    worst_tau0 = 0.0
    for name in MODEL_NAMES:
        spec = get_model(name)
        s = spec.expected.s_value
        for branch in (1, -1):
            lam, mu = 1.0, 1.2
            chart = PSpaceChart(spec, branch, lam, mu)
            expect = branch * (6.0 / (7.0 * lam * mu**2)) * (mu**2 + 2.0 * s * lam**2)
            rng = np.random.default_rng(107)
            for pt in chart.sample_points(20, rng):
                pt = tuple(pt)
                p = np.linalg.inv(chart.jets(pt, 1).coframe)
                s7 = chart.structure()
                worst_dpsi = max(worst_dpsi, s7.gnorm(chart.jets(pt, 1).dpsi.transform(p)))
                min_dphi = min(min_dphi, s7.gnorm(chart.jets(pt, 1).dphi.transform(p)))
                tn = chart.torsion_numeric(pt)
                worst_tau0 = max(worst_tau0, abs(tn.tau0 - expect))
    _report(
        7,
        worst_dpsi < 1e-9 and min_dphi > 1e-3 and worst_tau0 < 1e-8,
        f"12 charts x 20 points: max |dpsi| {worst_dpsi:.2e} (< 1e-9), "
        f"min |dphi| {min_dphi:.2e} (> 1e-3), max tau0 gap {worst_tau0:.2e} (< 1e-8)",
    )


def test_criterion_08_corollaries():
    rng = np.random.default_rng(108)
    # nearly parallel on the minus branch over the round sphere
    lam = 1.3
    chart = PSpaceChart(get_model("sphere4"), -1, lam, np.sqrt(5.0) * lam)
    s7 = chart.structure()
    worst_np = 0.0
    for pt in chart.sample_points(10, rng):
        pt = tuple(pt)
        p = np.linalg.inv(chart.jets(pt, 1).coframe)
        dphi = chart.jets(pt, 1).dphi.transform(p)
        worst_np = max(worst_np, (dphi - (-6.0 / (5.0 * lam)) * s7.psi).sup())
    # pure W3 tuning over real hyperbolic space
    lam = 0.8
    chart = PSpaceChart(get_model("hyperbolic4"), -1, lam, np.sqrt(2.0) * lam)
    s7 = chart.structure()
    worst_tau0 = 0.0
    labels_ok = True
    for pt in chart.sample_points(10, rng):
        tn = chart.torsion_numeric(tuple(pt))
        worst_tau0 = max(worst_tau0, abs(tn.tau0))
        labels_ok &= classify(tn, s7.g_diag).pure == "W3"
    # closed tau3 at the tuning on an anti-self-dual Einstein base (branch +)
    chart = PSpaceChart(get_model("hyperbolic4"), 1, lam, np.sqrt(2.0) * lam)
    s7 = chart.structure()
    beta_ad = Multivector.basis(7, (1, 2, 3))
    pred = (1.0 / (2.0 * lam)) * (s7.phi - 7.0 * lam**3 * beta_ad)
    worst_w3 = 0.0
    for pt in chart.sample_points(10, rng):
        tn = chart.torsion_numeric(tuple(pt))
        worst_w3 = max(worst_w3, (tn.tau3 - pred).sup())
    _report(
        8,
        worst_np < 1e-8 and worst_tau0 < 1e-8 and labels_ok and worst_w3 < 1e-8,
        f"nearly-parallel gap {worst_np:.2e}, tuned tau0 {worst_tau0:.2e}, "
        f"pure-W3 labels {labels_ok}, closed tau3 gap {worst_w3:.2e} (all < 1e-8)",
    )


def test_criterion_09_incompleteness():
    prof = bs_profile(-1.0, 1.0, 1.0)  # r0 = 1/2
    length = radius_length(prof, prof.r0)
    oracle = radius_length_riemann(prof, prof.r0, n=60_000)
    gap = abs(length - oracle)
    eq = geodesic_trace(r0=prof.r0, g0=0.3, v0=0.0, dt=1e-2, steps=400)
    eq_exact = float(np.max(np.abs(eq.rows[:, 1] - 0.3))) == 0.0 and not eq.escaped
    _report(
        9,
        np.isfinite(length) and gap < 1e-6 and eq_exact,
        f"radius length {length:.8f} finite, oracle gap {gap:.2e} (< 1e-6), equilibrium exact {eq_exact}",
    )


def test_criterion_10_determinism_and_budget():
    cfg = RunConfig.from_dict(
        {
            "model": "sphere4",
            "space": "X",
            "branch": -1,
            "profile": {"kind": "bs", "s": 1.0, "c0": 1.0, "c1": 1.0},
            "probes": 5,
            "seed": 7,
        }
    )
    a = run(cfg).to_json()
    b = run(cfg).to_json()
    identical = a == b
    parsed = json.loads(a)
    elapsed = time.perf_counter() - _T0
    _report(
        10,
        identical and parsed["pass"] and elapsed < 60.0,
        f"byte-identical reports (sequential == repeated): {identical}, "
        f"acceptance wall-clock {elapsed:.1f}s (< 60s)",
    )
