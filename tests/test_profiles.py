"""Radial profile families and the two-of-three condition lemma."""

import numpy as np
import pytest

from g2frames.bundle7.profiles import (
    Profile,
    ProfileDomainError,
    bs_profile,
    constant_profile,
    profile_from_const_and_tau2,
    profile_from_tau1_and_tau2,
    random_smooth_profile,
    two_of_three_report,
)


def test_reference_solution_values():
    # s=1, c0=1, c1=1: mu^2 = (2r+1)^(1/2), lam^2 = (2r+1)^(-1/2)
    p = bs_profile(1.0, 1.0, 1.0)
    assert p.lam(0.0) == pytest.approx(1.0)
    assert p.mu(0.0) == pytest.approx(1.0)
    for r in (0.3, 1.0, 4.2):
        assert p.mu(r) ** 2 == pytest.approx(np.sqrt(2 * r + 1), abs=1e-12)
        assert p.lam(r) ** 2 == pytest.approx((2 * r + 1) ** -0.5, abs=1e-12)
        assert p.lam(r) * p.mu(r) == pytest.approx(1.0, abs=1e-12)


def test_disk_domain_from_negative_curvature():
    # s=-1, c0=1, r0=2 corresponds to c1 = 4 and domain r < 2
    p = bs_profile(-1.0, 1.0, 4.0)
    assert p.r0 == pytest.approx(2.0)
    assert p.lam(1.9) > 0
    with pytest.raises(ProfileDomainError) as err:
        p.lam(2.0)
    assert "violated bound" in str(err.value)


def test_empty_domain_rejected():
    with pytest.raises(ProfileDomainError):
        bs_profile(-1.0, 1.0, -0.5)
    with pytest.raises(ProfileDomainError):
        bs_profile(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        bs_profile(1.0, -1.0, 1.0)


def test_scale_zero_curvature_constant():
    p = bs_profile(0.0, 2.0, 3.0)
    for r in (0.0, 1.0, 7.0):
        assert p.lam(r) == pytest.approx(p.lam(0.0))
        assert p.mu(r) == pytest.approx(p.mu(0.0))


def test_profile_jets_match_finite_differences():
    p = bs_profile(1.0, 1.3, 0.7)
    r, h = 0.9, 1e-6
    j = p.lam_jet(r, 2)
    fd1 = (p.lam(r + h) - p.lam(r - h)) / (2 * h)
    fd2 = (p.lam(r + h) - 2 * p.lam(r) + p.lam(r - h)) / h**2
    assert j.partial(0) == pytest.approx(fd1, abs=1e-7)
    assert j.derivative(0).partial(0) == pytest.approx(fd2, abs=1e-4)


def test_two_of_three_lemma():
    rng = np.random.default_rng(30)
    builders = (
        lambda s, a, b: bs_profile(s, a, b),  # const + tau1 enforced
        lambda s, a, b: profile_from_const_and_tau2(s, a, b),
        lambda s, a, b: profile_from_tau1_and_tau2(s, a, b),
    )
    for trial in range(20):
        s = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0))
        a = float(rng.uniform(0.4, 2.0))
        b = float(rng.uniform(0.4, 2.0))
        for build in builders:
            p = build(s, a, b)
            hi = p.r_min + 6.0 if not np.isfinite(p.r_max) else p.r_max
            samples = np.linspace(p.r_min, hi, 102)[1:-1]
            worst = two_of_three_report(p, s, samples)
            assert max(worst.values()) < 1e-8, (build, s, a, b, worst)


def test_random_profile_admissible():
    rng = np.random.default_rng(31)
    p = random_smooth_profile(rng)
    for r in np.linspace(0, 5, 11):
        assert p.lam(r) > 0 and p.mu(r) > 0
    # generic profiles break all three conditions
    rep = two_of_three_report(p, 1.0, np.linspace(0.1, 3.0, 20))
    assert max(rep.values()) > 1e-4


def test_constant_profile():
    p = constant_profile(1.5, 0.5)
    assert p.lam_jet(3.0, 2).partial(0) == 0.0
    with pytest.raises(ValueError):
        constant_profile(-1.0, 1.0)


def test_two_of_three_report_propagates_a_later_nan():
    def lam_fn(r):  # the lemma evaluates its radii as one batch of jets
        return r * 0.0 + np.where(r.value > 1.0, np.nan, 1.0)

    p = Profile(lam_fn=lam_fn, mu_fn=lambda r: r * 0.0 + 1.0, r_min=0.0, r_max=np.inf, kind="test")
    rep = two_of_three_report(p, 1.0, [0.5, 2.0])
    assert np.isnan(rep["const"])


@pytest.mark.parametrize(
    "profile",
    [
        bs_profile(-1.0, 1.1, 0.9),
        profile_from_const_and_tau2(-0.6, 0.9, 1.2),
        profile_from_tau1_and_tau2(-1.3, 1.2, 0.8),
        constant_profile(1.3, 0.7),
        random_smooth_profile(np.random.default_rng(4)),
    ],
    ids=lambda p: p.kind,
)
def test_lam_values_match_lam_bitwise(profile):
    top = profile.r0 if profile.r0 is not None else 10.0
    r = np.linspace(0.0, top, 1001)[:-1]
    expect = np.array([profile.lam(v) for v in r.tolist()])
    assert profile.lam_values(r).tobytes() == expect.tobytes()


def test_lam_values_name_the_first_radius_outside_the_domain():
    p = bs_profile(1.0, 1.0, -0.5)  # r_min = 0.25
    with pytest.raises(ProfileDomainError, match="r = 0.1 outside"):
        p.lam_values(np.array([0.5, 0.1, 0.2]))
    with pytest.raises(ProfileDomainError, match="r = nan outside"):
        bs_profile(-1.0, 1.0, 1.0).lam_values(np.array([0.1, np.nan]))
