"""Coframe-bundle charts: the identity block, cocalibration, and torsion."""

import math

import numpy as np
import pytest

from g2frames.bundle7.pspace import (
    CHART_BOUND,
    ChartBoundError,
    PSpaceChart,
    _base_star,
    _lift_star,
    _series_derivs,
    rotation_jets,
)
from g2frames.exterior import Multivector
from g2frames.g2point import classify
from g2frames.jets import fd_partial, libm, variables
from g2frames.models import MODEL_NAMES, get_model

SEED = 99


def make_chart(name, branch, lam=1.0, mu=1.0):
    return PSpaceChart(get_model(name), branch, lam, mu)


def test_rotation_jets_against_series_and_fd():
    rng = np.random.default_rng(1)
    for norm in (1e-4, 0.3, 1.4, 2.9):
        u = rng.normal(size=3)
        u *= norm / np.linalg.norm(u)
        jets = variables(tuple(u) + (0.0,) * 4, 2)[:3]
        g = rotation_jets(jets)
        gval = np.array([[e.value for e in row] for row in g])
        assert np.max(np.abs(gval @ gval.T - np.eye(3))) < 1e-12
        assert np.linalg.det(gval) == pytest.approx(1.0, abs=1e-12)

        def entry(p, i=1, j=2):
            from scipy.spatial.transform import Rotation

            return Rotation.from_rotvec(p[:3]).as_matrix()[i, j]

        pt7 = list(u) + [0.0] * 4
        assert g[1][2].partial(0) == pytest.approx(fd_partial(entry, pt7, 0), abs=1e-6)
        assert g[1][2].partial(2) == pytest.approx(fd_partial(entry, pt7, 2), abs=1e-6)


def series_derivs_termwise(t, order, shift):
    """The Rodrigues series derivatives summed one libm power at a time."""
    out = []
    for m in range(order + 1):
        acc = 0.0
        for j in range(m, m + 30):
            acc += (-1.0) ** j * math.perm(j, m) * libm(pow, t, j - m) / math.factorial(2 * j + shift)
        out.append(acc)
    return out


def test_series_derivs_equal_the_termwise_sum_bitwise():
    points = [0.0, 1e-3, 1.0, CHART_BOUND**2]
    for t in points + [np.array(points), np.array([[0.5, 2.0], [1e-3, 9.0]])]:
        for order in (0, 1, 2, 3):
            for shift in (1, 2):
                got, want = _series_derivs(t, order, shift), series_derivs_termwise(t, order, shift)
                assert len(got) == len(want) == order + 1
                for x, y in zip(got, want):
                    assert type(x) is type(y)
                    assert np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y)), (t, order, shift)


def test_chart_bound_enforced():
    chart = make_chart("flat", 1)
    with pytest.raises(ChartBoundError):
        chart.jets((2.5, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0), 1).phi.value()
    with pytest.raises(ValueError):
        PSpaceChart(get_model("flat"), 1, -1.0, 1.0)


def test_identity_block_all_models_and_branches():
    rng = np.random.default_rng(SEED)
    for name in MODEL_NAMES:
        for branch in (1, -1):
            chart = make_chart(name, branch, 1.1, 0.8)
            for pt in chart.sample_points(2, rng):
                res = chart.identity_residuals(tuple(pt))
                worst = max(res.values())
                assert worst < 1e-8, (name, branch, max(res, key=res.get), worst)


def test_adapted_basis_standardizes_phi_psi():
    rng = np.random.default_rng(SEED)
    chart = make_chart("complexHyperbolic", -1, 0.7, 1.6)
    s7 = chart.structure()
    for pt in chart.sample_points(4, rng):
        pt = tuple(pt)
        row = chart.jets(pt, 1)
        p = np.linalg.inv(row.coframe)
        assert (row.phi.value().transform(p) - s7.phi).sup() < 1e-10
        assert (row.psi.value().transform(p) - s7.psi).sup() < 1e-10
        # the build holds (d phi, d psi) in the adapted coframe
        dphi_a, dpsi_a = chart.adapted_derivatives(pt)
        assert np.array_equal(dphi_a.coef, row.dphi.transform(p).coef)
        assert np.array_equal(dpsi_a.coef, row.dpsi.transform(p).coef)


def test_always_cocalibrated_never_calibrated():
    rng = np.random.default_rng(SEED)
    for name in MODEL_NAMES:
        for branch in (1, -1):
            chart = make_chart(name, branch, 1.0, 1.2)
            for pt in chart.sample_points(3, rng):
                pt = tuple(pt)
                assert chart.jets(pt, 1).dpsi.sup() < 1e-9, (name, branch)
                assert chart.jets(pt, 1).dphi.sup() > 1e-3, (name, branch)


def test_tau0_closed_form_all_models():
    rng = np.random.default_rng(SEED)
    for name in MODEL_NAMES:
        spec = get_model(name)
        s = spec.expected.s_value
        for branch in (1, -1):
            lam, mu = 0.9, 1.3
            chart = make_chart(name, branch, lam, mu)
            expect = branch * (6.0 / (7.0 * lam * mu**2)) * (mu**2 + 2.0 * s * lam**2)
            for pt in chart.sample_points(2, rng):
                tn = chart.torsion_numeric(tuple(pt))
                assert tn.tau0 == pytest.approx(expect, abs=1e-8), (name, branch)


def test_torsion_closed_vs_numeric_all_models():
    rng = np.random.default_rng(SEED)
    for name in MODEL_NAMES:
        for branch in (1, -1):
            chart = make_chart(name, branch, 1.2, 0.9)
            for pt in chart.sample_points(2, rng):
                gap = chart.torsion_gap(tuple(pt))
                assert gap < 1e-6, (name, branch, gap)


def test_closed_tau3_lies_in_w3():
    # the membership tau3 ^ phi = tau3 ^ psi = 0 of the closed formula
    rng = np.random.default_rng(SEED)
    for name in ("sphere4", "productS2H2", "fubiniStudy"):
        chart = make_chart(name, 1, 1.0, 1.1)
        for pt in chart.sample_points(2, rng):
            tc = chart.torsion_closed(tuple(pt))
            assert tc.membership_w3 < 1e-8, name


def test_nearly_parallel_tuning():
    # branch -1 over the round sphere with mu^2 = 5 s lam^2
    rng = np.random.default_rng(SEED)
    lam = 1.3
    mu = np.sqrt(5.0) * lam
    chart = make_chart("sphere4", -1, lam, mu)
    s7 = chart.structure()
    for pt in chart.sample_points(4, rng):
        pt = tuple(pt)
        tn = chart.torsion_numeric(pt)
        assert tn.tau0 == pytest.approx(-6.0 / (5.0 * lam), abs=1e-10)
        p = np.linalg.inv(chart.jets(pt, 1).coframe)
        dphi = chart.jets(pt, 1).dphi.transform(p)
        assert (dphi - (-6.0 / (5.0 * lam)) * s7.psi).sup() < 1e-8
        cls = classify(tn, s7.g_diag)
        assert cls.nearly_parallel_candidate


def test_nearly_parallel_norm_scales_with_lam():
    # |dphi| = (6/5 lam) |psi| can be made arbitrarily small or large
    rng = np.random.default_rng(SEED)
    norms = []
    for lam in (0.5, 2.0):
        chart = make_chart("sphere4", -1, lam, np.sqrt(5.0) * lam)
        pt = tuple(chart.sample_points(1, rng)[0])
        s7 = chart.structure()
        p = np.linalg.inv(chart.jets(pt, 1).coframe)
        norms.append(s7.gnorm(chart.jets(pt, 1).dphi.transform(p)))
    assert norms[0] > norms[1]


def test_pure_w3_tuning_and_closed_form():
    # mu^2 = -2 s lam^2 (s = -1 here): tau0 = 0, pure W3; for the Einstein
    # duality models tau3 = (+-1/(2 lam)) (phi - 7 lam^3 beta)
    rng = np.random.default_rng(SEED)
    beta_ad = Multivector.basis(7, (1, 2, 3))
    for name in ("hyperbolic4", "complexHyperbolic"):
        for branch in ((1, -1) if name == "hyperbolic4" else (-1,)):
            lam = 0.8
            mu = np.sqrt(2.0) * lam
            chart = make_chart(name, branch, lam, mu)
            s7 = chart.structure()
            pred = (branch / (2.0 * lam)) * (s7.phi - 7.0 * lam**3 * beta_ad)
            for pt in chart.sample_points(3, rng):
                tn = chart.torsion_numeric(tuple(pt))
                assert abs(tn.tau0) < 1e-10
                cls = classify(tn, s7.g_diag)
                assert cls.pure == "W3" and cls.cocalibrated
                assert (tn.tau3 - pred).sup() < 1e-8, (name, branch)


def test_canonical_forms_exposed():
    chart = make_chart("sphere4", 1, 1.0, 1.0)
    rng = np.random.default_rng(SEED)
    pt = tuple(chart.sample_points(1, rng)[0])
    J = chart.jets(pt)
    # beta = f1 f2 f3 and the connection matrix is skew
    f = [x.value() for x in J.f]
    beta = f[0].wedge(f[1]).wedge(f[2])
    assert (beta - J.beta.value()).sup() < 1e-12
    omega = J.omega.value()
    for i in range(3):
        for j in range(3):
            assert (omega[i, j] + omega[j, i]).sup() < 1e-12


def test_star_horizontal_rejects_vertical_component():
    chart = make_chart("sphere4", 1)
    pt = tuple(chart.sample_points(1, np.random.default_rng(SEED))[0])
    star = _base_star(chart.frame.base(pt[3:], 2))
    horizontal = Multivector.basis(7, (4, 5))
    assert _lift_star([horizontal], star)[0].sup() > 0.0
    for idx in ((1, 4), (2, 3)):
        with pytest.raises(ValueError, match="not horizontal"):
            _lift_star([horizontal + Multivector.basis(7, idx)], star)
