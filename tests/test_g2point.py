"""Pointwise structure 3-form algebra: metric recovery and torsion split."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2frames.exterior import Multivector, combos
from g2frames.g2point import (
    DecompositionError,
    DegeneratePhiError,
    classify,
    classify_norms,
    duality_pairing,
    metric_from_phi,
    standard_phi,
    torsion_decompose,
)


def test_unit_structure():
    s = standard_phi(1.0, 1.0, -1)
    rec = metric_from_phi(s.phi)
    assert np.max(np.abs(rec.gram - np.eye(7))) < 1e-12
    assert rec.m == pytest.approx(1.0, abs=1e-12)
    assert rec.signature == (7, 0)
    assert s.phi.inner(s.phi, s.g_diag) == pytest.approx(7.0, abs=1e-12)


def test_scaled_structure():
    s = standard_phi(2.0, 1.0, -1)
    assert np.allclose(s.g_diag, [4, 4, 4, 1, 1, 1, 1])
    assert s.m == pytest.approx(8.0)
    rec = metric_from_phi(s.phi)
    assert np.max(np.abs(rec.gram - np.diag(s.g_diag))) < 1e-10
    assert rec.m == pytest.approx(8.0, abs=1e-10)


def test_branches_share_metric_differ_in_pairing():
    plus = standard_phi(1.0, 1.0, 1)
    minus = standard_phi(1.0, 1.0, -1)
    assert np.allclose(plus.g_diag, minus.g_diag)
    assert (plus.phi - minus.phi).sup() > 1.0
    for s in (plus, minus):
        rec = metric_from_phi(s.phi)
        assert np.max(np.abs(rec.gram - np.eye(7))) < 1e-12


def test_psi_is_hodge_of_phi():
    rng = np.random.default_rng(0)
    for _ in range(50):
        lam, mu = rng.uniform(0.4, 2.5, size=2)
        branch = 1 if rng.random() < 0.5 else -1
        s = standard_phi(lam, mu, branch)
        assert (s.hodge(s.phi) - s.psi).sup() < 1e-12


def test_contraction_example():
    # f1 . phi = f23 - branch * e1
    for branch in (1, -1):
        s = standard_phi(1.0, 1.0, branch)
        v = np.zeros(7)
        v[0] = 1.0
        got = s.phi.interior(v)
        expect = Multivector.basis(7, (2, 3)) - float(branch) * duality_pairing(branch)[0]
        assert (got - expect).sup() < 1e-14


def test_positive_scales_required():
    with pytest.raises(ValueError):
        standard_phi(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        standard_phi(1.0, -2.0, -1)
    with pytest.raises(ValueError):
        standard_phi(1.0, 1.0, 2)


def test_metric_recovery_random_scales():
    rng = np.random.default_rng(1)
    for _ in range(20):
        lam, mu = rng.uniform(0.4, 2.2, size=2)
        s = standard_phi(lam, mu, -1)
        rec = metric_from_phi(s.phi)
        assert np.max(np.abs(rec.gram - np.diag(s.g_diag))) < 1e-10
        assert rec.m == pytest.approx(lam**3 * mu**4, abs=1e-10)
        assert rec.definite


def test_sign_flipped_pairing_gives_split_signature():
    rng = np.random.default_rng(2)
    f = [Multivector.basis(7, (i,)) for i in (1, 2, 3)]
    for branch in (1, -1):
        e = duality_pairing(branch)
        for _ in range(10):
            lam, mu = rng.uniform(0.5, 2.0, size=2)
            mixed = f[0].wedge(e[0]) + f[1].wedge(e[1]) - f[2].wedge(e[2])
            phi = lam**3 * f[0].wedge(f[1]).wedge(f[2]) - branch * lam * mu**2 * mixed
            rec = metric_from_phi(phi)
            assert rec.signature == (3, 4)
            assert not rec.definite


def test_degenerate_rejected_with_rank():
    with pytest.raises(DegeneratePhiError) as err:
        metric_from_phi(Multivector.basis(7, (1, 2, 3)))
    assert err.value.rank < 7


def test_metric_recovery_equivariant():
    # covector substitution by an orientation-positive signed permutation
    # transforms the recovered Gram matrix by congruence
    rng = np.random.default_rng(3)
    s = standard_phi(1.3, 0.8, -1)
    base = metric_from_phi(s.phi)
    for _ in range(10):
        perm = rng.permutation(7)
        signs = rng.choice([-1.0, 1.0], size=7)
        q = np.zeros((7, 7))
        for i in range(7):
            q[i, perm[i]] = signs[i]
        if np.linalg.det(q) < 0:
            q[0] *= -1
        rec = metric_from_phi(s.phi.transform(q))
        assert np.max(np.abs(rec.gram - q.T @ base.gram @ q)) < 1e-10
        assert rec.m == pytest.approx(base.m, abs=1e-10)


def test_w14_eigenvalue_per_branch():
    # the 14-dimensional eigenspace of tau -> *(tau^phi) realizes eigenvalue
    # -branch, matching the stated membership condition tau2^phi = -+ *tau2
    assert standard_phi(1.0, 1.0, 1).w14_eigenvalue == pytest.approx(-1.0)
    assert standard_phi(1.0, 1.0, -1).w14_eigenvalue == pytest.approx(1.0)


def _random_torsion(s, rng):
    tau0 = float(rng.normal())
    tau1 = Multivector(7, 1, rng.normal(size=7))
    tau2 = s.project_w14(Multivector(7, 2, rng.normal(size=len(combos(7, 2)))))
    tau3 = s.project_w27(Multivector(7, 3, rng.normal(size=len(combos(7, 3)))))
    return tau0, tau1, tau2, tau3


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**6))
def test_torsion_round_trip(seed):
    rng = np.random.default_rng(seed)
    branch = 1 if seed % 2 else -1
    lam, mu = rng.uniform(0.5, 2.0, size=2)
    s = standard_phi(lam, mu, branch)
    tau0, tau1, tau2, tau3 = _random_torsion(s, rng)
    dphi = tau0 * s.psi + 0.75 * tau1.wedge(s.phi) + s.hodge(tau3)
    dpsi = tau1.wedge(s.psi) + tau2.wedge(s.phi)
    t = torsion_decompose(s, dphi, dpsi)
    assert abs(t.tau0 - tau0) < 1e-9
    assert (t.tau1 - tau1).sup() < 1e-9
    assert (t.tau2 - tau2).sup() < 1e-9
    assert (t.tau3 - tau3).sup() < 1e-9
    assert t.membership_w2 < 1e-9 and t.membership_w3 < 1e-9
    assert t.residual_phi < 1e-9 and t.residual_psi < 1e-9


def test_parallel_case():
    s = standard_phi(1.0, 1.0, 1)
    t = torsion_decompose(s, Multivector(7, 4), Multivector(7, 5))
    assert classify(t, s.g_diag).parallel
    assert classify(t, s.g_diag).label == "parallel"


def test_pure_conformal_scalar_case():
    s = standard_phi(1.2, 0.9, -1)
    c = 0.37
    t = torsion_decompose(s, c * s.psi, Multivector(7, 5))
    assert t.tau0 == pytest.approx(c, abs=1e-12)
    assert t.tau1.sup() < 1e-12 and t.tau2.sup() < 1e-12 and t.tau3.sup() < 1e-12
    cls = classify(t, s.g_diag)
    assert cls.nearly_parallel_candidate and cls.pure == "W0"


def test_pure_w3_classification():
    rng = np.random.default_rng(4)
    s = standard_phi(1.0, 1.0, -1)
    tau3 = s.project_w27(Multivector(7, 3, rng.normal(size=len(combos(7, 3)))))
    t = torsion_decompose(s, s.hodge(tau3), Multivector(7, 5))
    cls = classify(t, s.g_diag)
    assert cls.pure == "W3"
    assert cls.cocalibrated and not cls.calibrated
    assert "pure W3" in cls.label and "cocalibrated" in cls.label


def test_cocalibrated_mixed_class():
    rng = np.random.default_rng(5)
    s = standard_phi(1.0, 1.0, 1)
    tau3 = s.project_w27(Multivector(7, 3, rng.normal(size=len(combos(7, 3)))))
    t = torsion_decompose(s, 0.5 * s.psi + s.hodge(tau3), Multivector(7, 5))
    cls = classify(t, s.g_diag)
    assert cls.active == ("W0", "W3")
    assert cls.cocalibrated and not cls.parallel and cls.pure is None


def test_junk_input_rejected():
    rng = np.random.default_rng(6)
    s = standard_phi(1.0, 1.0, -1)
    dphi = Multivector(7, 4, rng.normal(size=len(combos(7, 4))))
    dpsi = Multivector(7, 5, rng.normal(size=len(combos(7, 5))))
    with pytest.raises(DecompositionError):
        torsion_decompose(s, dphi, dpsi)


def test_membership_projectors():
    rng = np.random.default_rng(7)
    s = standard_phi(0.8, 1.7, 1)
    raw2 = Multivector(7, 2, rng.normal(size=len(combos(7, 2))))
    tau2 = s.project_w14(raw2)
    assert (s.project_w14(tau2) - tau2).sup() < 1e-12  # idempotent
    assert s.gnorm(tau2.wedge(s.phi) - s.w14_eigenvalue * s.hodge(tau2)) < 1e-12
    assert tau2.wedge(s.psi).sup() < 1e-12
    raw3 = Multivector(7, 3, rng.normal(size=len(combos(7, 3))))
    tau3 = s.project_w27(raw3)
    assert tau3.wedge(s.phi).sup() < 1e-12
    assert tau3.wedge(s.psi).sup() < 1e-12


def test_standard_phi_is_the_wedge_formula():
    # phi = lam^3 f123 -+ lam mu^2 eta.f^t and psi = mu^4 vol - lam^2 mu^2 eta.h^t
    rng = np.random.default_rng(21)
    f = [Multivector.basis(7, (i,)) for i in (1, 2, 3)]
    h = [f[1].wedge(f[2]), f[2].wedge(f[0]), f[0].wedge(f[1])]
    vol = Multivector.basis(7, (4, 5, 6, 7))
    for _ in range(20):
        lam, mu = rng.uniform(0.3, 3.0, size=2)
        for branch in (1, -1):
            eta = duality_pairing(branch)
            eta_f = eta[0].wedge(f[0]) + eta[1].wedge(f[1]) + eta[2].wedge(f[2])
            eta_h = eta[0].wedge(h[0]) + eta[1].wedge(h[1]) + eta[2].wedge(h[2])
            phi = lam**3 * f[0].wedge(f[1]).wedge(f[2]) - branch * lam * mu**2 * eta_f
            psi = mu**4 * vol - lam**2 * mu**2 * eta_h
            s = standard_phi(lam, mu, branch)
            assert (s.phi - phi).sup() <= 1e-14 * max(1.0, lam**3, lam * mu**2)
            assert (s.psi - psi).sup() <= 1e-14 * max(1.0, mu**4, lam**2 * mu**2)


def test_nan_norm_is_not_torsion_free():
    norms = {"tau0": 0.0, "tau1": 0.0, "tau2": float("nan"), "tau3": 0.0}
    cls = classify_norms(norms)
    assert cls.active == ("W2",)
    assert not cls.parallel and cls.label != "parallel"
    assert classify_norms(dict(norms, tau2=0.0)).label == "parallel"
