"""2-form bundle charts: structure systems and the torsion cross-check."""

import numpy as np
import pytest

from g2frames.bundle7.chart import torsion_gap
from g2frames.bundle7.profiles import ProfileDomainError, bs_profile, constant_profile, random_smooth_profile
from g2frames.bundle7.xspace import EDGE_MARGIN, DualityHypothesisError, XSpaceChart
from g2frames.exterior import Multivector
from g2frames.g2point import TorsionForms, classify, metric_from_phi
from g2frames.models import get_model

RNG_SEED = 77

# (model, branch) pairs satisfying the duality hypothesis of the torsion theorem
ADMISSIBLE = [
    ("sphere4", -1),
    ("hyperbolic4", -1),
    ("fubiniStudy", -1),
    ("complexHyperbolic", -1),
    ("flat", 1),
    ("productS2H2", 1),
]


def make_chart(name, branch, profile=None, seed=RNG_SEED):
    spec = get_model(name)
    prof = profile if profile is not None else constant_profile(1.0, 1.0)
    return XSpaceChart(spec, branch, prof)


def test_flat_constant_profile_is_parallel():
    chart = make_chart("flat", 1)
    rng = np.random.default_rng(RNG_SEED)
    for pt in chart.sample_points(20, rng):
        assert chart.jets(tuple(pt), 1).dphi.sup() < 1e-13
        assert chart.jets(tuple(pt), 1).dpsi.sup() < 1e-13
    t = chart.torsion_numeric(tuple(chart.sample_points(1, rng)[0]))
    s7 = chart.structure(tuple(chart.sample_points(1, rng)[0]))
    assert classify(t, s7.g_diag).parallel


def test_fiber_point_and_radius():
    chart = make_chart("sphere4", -1)
    J = chart.jets((0.3, -0.4, 1.2, 0, 0, 0, 0))
    assert J.r.value == pytest.approx(0.09 + 0.16 + 1.44)


def test_canonical_form_identities():
    # h = (f23, f31, f12), beta = (1/3) h f^t, and the h/beta wedge relations
    chart = make_chart("hyperbolic4", -1, random_smooth_profile(np.random.default_rng(1)))
    rng = np.random.default_rng(RNG_SEED)
    for pt in chart.sample_points(5, rng):
        J = chart.jets(tuple(pt))
        f, h = ([x.value() for x in forms] for forms in (J.f, J.h))
        expect_h = (f[1].wedge(f[2]), f[2].wedge(f[0]), f[0].wedge(f[1]))
        for a, b in zip(h, expect_h):
            assert (a - b).sup() < 1e-12
        third = sum((h[i].wedge(f[i]) for i in (1, 2)), h[0].wedge(f[0]))
        assert (third * (1.0 / 3.0) - J.beta.value()).sup() < 1e-12


def test_structure_residuals_all_models():
    rng = np.random.default_rng(RNG_SEED)
    for name, branch in ADMISSIBLE:
        chart = make_chart(name, branch, random_smooth_profile(np.random.default_rng(3)))
        for pt in chart.sample_points(3, rng):
            res = chart.structure_residuals(tuple(pt))
            assert max(res.values()) < 1e-8, (name, res)


def test_adapted_basis_standardizes_phi_psi():
    rng = np.random.default_rng(RNG_SEED)
    chart = make_chart("fubiniStudy", -1, random_smooth_profile(np.random.default_rng(4)))
    for pt in chart.sample_points(4, rng):
        pt = tuple(pt)
        s7 = chart.structure(pt)
        row = chart.jets(pt, 1)
        p = np.linalg.inv(row.coframe)
        assert (row.phi.value().transform(p) - s7.phi).sup() < 1e-10
        assert (row.psi.value().transform(p) - s7.psi).sup() < 1e-10
        # the build holds (d phi, d psi) in the adapted coframe
        dphi_a, dpsi_a = chart.adapted_derivatives(pt)
        assert np.array_equal(dphi_a.coef, row.dphi.transform(p).coef)
        assert np.array_equal(dpsi_a.coef, row.dpsi.transform(p).coef)


def test_metric_recovery_from_chart_phi():
    rng = np.random.default_rng(RNG_SEED)
    chart = make_chart("sphere4", -1, bs_profile(1.0, 1.2, 0.8))
    for pt in chart.sample_points(3, rng):
        pt = tuple(pt)
        p = np.linalg.inv(chart.jets(pt, 1).coframe)
        rec = metric_from_phi(chart.jets(pt, 1).phi.value().transform(p))
        s7 = chart.structure(pt)
        assert np.max(np.abs(rec.gram - np.diag(s7.g_diag))) < 1e-10
        assert rec.m == pytest.approx(s7.m, abs=1e-10)


def test_torsion_closed_vs_numeric_all_models():
    rng = np.random.default_rng(RNG_SEED)
    for name, branch in ADMISSIBLE:
        for trial in range(2):
            prof = random_smooth_profile(np.random.default_rng(100 + trial))
            chart = make_chart(name, branch, prof)
            for pt in chart.sample_points(4, rng):
                gap = chart.torsion_gap(tuple(pt))
                assert gap < 1e-6, (name, branch, gap)


def test_tau0_always_vanishes():
    rng = np.random.default_rng(RNG_SEED)
    for name, branch in ADMISSIBLE[:3]:
        chart = make_chart(name, branch, random_smooth_profile(np.random.default_rng(9)))
        for pt in chart.sample_points(4, rng):
            t = chart.torsion_numeric(tuple(pt))
            assert abs(t.tau0) < 1e-8


def test_duality_hypothesis_enforced():
    # the Kaehler models have nonzero self-dual Weyl part, so branch +1 is out
    chart = make_chart("fubiniStudy", 1)
    rng = np.random.default_rng(RNG_SEED)
    pt = tuple(chart.sample_points(1, rng)[0])
    with pytest.raises(DualityHypothesisError) as err:
        chart.torsion_closed(pt)
    assert "W+" in str(err.value) or "anti-self-dual" in str(err.value)


def test_profile_domain_violation_reported():
    chart = make_chart("hyperbolic4", -1, bs_profile(-1.0, 1.0, 1.0))  # r0 = 0.5
    bad = (0.6, 0.5, 0.2, 0.0, 0.1, 0.0, 0.0)  # r = 0.65 > r0
    with pytest.raises(ProfileDomainError):
        chart.jets(bad, 1).phi.value()


@pytest.mark.parametrize(
    "model, branch, profile",
    [("hyperbolic4", -1, bs_profile(-1.0, 1.0, 1.0)), ("sphere4", -1, bs_profile(1.0, 1.0, -2.0))],
    ids=["disk", "inner-edge"],
)
def test_probes_keep_the_edge_margin(model, branch, profile):
    # about 1.5% (disk) and 0.7% (r_min = 1) of unrestricted draws would fall in the margin
    chart = make_chart(model, branch, profile)
    r = np.sum(chart.sample_points(2000, np.random.default_rng(RNG_SEED))[:, :3] ** 2, axis=1)
    if profile.r0 is not None:
        assert r.max() < (1.0 - EDGE_MARGIN) * profile.r0
        assert r.max() > (1.0 - 2 * EDGE_MARGIN) * profile.r0
    else:
        assert r.min() >= (1.0 + EDGE_MARGIN) * profile.r_min
        assert r.min() < (1.0 + 2 * EDGE_MARGIN) * profile.r_min


def test_bryant_salamon_profiles_parallel():
    rng = np.random.default_rng(RNG_SEED)
    cases = [
        ("sphere4", bs_profile(1.0, 1.0, 1.0)),
        ("fubiniStudy", bs_profile(1.0, 0.8, 1.3)),
        ("hyperbolic4", bs_profile(-1.0, 1.0, 1.0)),
        ("complexHyperbolic", bs_profile(-1.0, 1.1, 0.9)),
    ]
    for name, prof in cases:
        chart = make_chart(name, -1, prof)
        for pt in chart.sample_points(6, rng, a_max=0.6):
            t = chart.torsion_numeric(tuple(pt))
            s7 = chart.structure(tuple(pt))
            norms = t.norms(s7.g_diag)
            assert max(norms.values()) < 1e-6, (name, norms)


def test_conformally_flat_profile_family():
    # lam constant, mu^2 = lam^2 (2 s r + c1): the tau2 condition holds but
    # tau1 generally does not
    lam, c1, s = 1.0, 1.0, -1.0
    spec = get_model("hyperbolic4")
    from g2frames.bundle7.profiles import Profile

    prof = Profile(
        lam_fn=lambda r: r * 0.0 + lam,
        mu_fn=lambda r: (lam**2 * (2.0 * s * r + c1)).sqrt(),
        r_min=0.0,
        r_max=c1 / (2.0 * -s) if s < 0 else np.inf,
        kind="tau2-only",
    )
    chart = XSpaceChart(spec, -1, prof)
    rng = np.random.default_rng(RNG_SEED)
    saw_tau1 = 0.0
    for pt in chart.sample_points(5, rng, a_max=0.5):
        t = chart.torsion_numeric(tuple(pt))
        s7 = chart.structure(tuple(pt))
        norms = t.norms(s7.g_diag)
        assert norms["tau2"] < 1e-8
        assert norms["tau0"] < 1e-8 and norms["tau3"] < 1e-8
        saw_tau1 = max(saw_tau1, norms["tau1"])
    assert saw_tau1 > 1e-3


def test_scalar_flat_product_is_pure_w3():
    chart = make_chart("productS2H2", 1, constant_profile(1.0, 1.0))
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for pt in chart.sample_points(5, rng):
        pt = tuple(pt)
        t = chart.torsion_numeric(pt)
        s7 = chart.structure(pt)
        norms = t.norms(s7.g_diag)
        assert norms["tau0"] < 1e-8 and norms["tau1"] < 1e-8 and norms["tau2"] < 1e-8
        worst = max(worst, norms["tau3"])
        cls = classify(t, s7.g_diag)
        assert cls.pure == "W3" and cls.cocalibrated
        # closed form: tau3 = -+ lam^2 f rho_B a^t, nonzero off the zero section
        tc = chart.torsion_closed(pt)
        assert (tc.tau3 - t.tau3).sup() < 1e-8
    assert worst > 1e-3


def test_einstein_base_kills_tau3():
    rng = np.random.default_rng(RNG_SEED)
    for name in ("sphere4", "hyperbolic4", "fubiniStudy", "complexHyperbolic"):
        chart = make_chart(name, -1, random_smooth_profile(np.random.default_rng(55)))
        for pt in chart.sample_points(3, rng):
            t = chart.torsion_numeric(tuple(pt))
            s7 = chart.structure(tuple(pt))
            assert t.norms(s7.g_diag)["tau3"] < 1e-8, name


def test_dphi_nilpotency_via_order2_jets():
    chart = make_chart("sphere4", -1, bs_profile(1.0, 1.0, 1.0))
    rng = np.random.default_rng(RNG_SEED)
    for pt in chart.sample_points(3, rng):
        j = chart.jets(tuple(pt), 2)
        assert j.phi.d_jets().d_value().sup() < 1e-9
        assert j.psi.d_jets().d_value().sup() < 1e-9


def test_torsion_gap_propagates_a_nan_after_a_finite_gap():
    def forms(tau0, tau3_coef):
        tau3 = Multivector(7, 3)
        tau3.coef[0] = tau3_coef
        zero = Multivector(7, 1), Multivector(7, 2)
        return TorsionForms(tau0, *zero, tau3, 0.0, 0.0, 0.0, 0.0)

    assert torsion_gap(forms(1.0, 0.0), forms(0.5, 0.0)) == 0.5
    assert np.isnan(torsion_gap(forms(1.0, 0.0), forms(0.5, np.nan)))
