"""Fiber-radius length integral and vertical geodesic traces."""

import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

from g2frames.bundle7.profiles import (
    ProfileDomainError,
    bs_profile,
    profile_from_const_and_tau2,
    profile_from_tau1_and_tau2,
)
from g2frames.bundle7.radial import (
    RIEMANN_CHUNK,
    adaptive_simpson,
    geodesic_trace,
    radial_geometry,
    radius_length,
    radius_length_riemann,
)


def test_adaptive_simpson_polynomial_exact():
    got = adaptive_simpson(lambda x: 3 * x**2 + 1, 0.0, 2.0, tol=1e-12)
    assert got == pytest.approx(10.0, abs=1e-10)


def test_radius_length_closed_form():
    # unit-disk profile (s=-1, c0=1): length = (2 r0)^(1/4) * B(1/2 cos power);
    # int_0^1 (1-u^2)^(-1/4) du = sqrt(pi)/2 * Gamma(3/4)/Gamma(5/4)
    for r0 in (0.5, 2.0):
        p = bs_profile(-1.0, 1.0, 2.0 * r0)
        expect = (2 * r0) ** 0.25 * (np.sqrt(np.pi) / 2) * special.gamma(0.75) / special.gamma(1.25)
        got = radius_length(p, r0)
        assert got == pytest.approx(expect, abs=1e-8)
        assert np.isfinite(got)


def test_length_agrees_with_riemann_oracle():
    p = bs_profile(-1.0, 1.0, 1.0)  # r0 = 1/2
    main = radius_length(p, 0.5)
    oracle = radius_length_riemann(p, 0.5, n=60_000)
    assert abs(main - oracle) < 1e-6


def test_length_agrees_with_scipy_quad():
    p = bs_profile(-1.0, 1.3, 1.7)
    r0 = p.r0
    tmax = np.sqrt(2 * r0)
    quad, _ = integrate.quad(
        lambda t: p.lam(min(t * t / 2.0, np.nextafter(r0, 0.0))), 0.0, tmax, limit=200
    )
    assert radius_length(p, r0) == pytest.approx(quad, abs=1e-6)


def test_geodesic_equilibrium_exact():
    trace = geodesic_trace(r0=0.5, g0=0.4, v0=0.0, dt=1e-2, steps=500)
    assert np.max(np.abs(trace.rows[:, 1] - 0.4)) == 0.0
    assert np.max(np.abs(trace.rows[:, 2])) == 0.0
    assert not trace.escaped and trace.inside


def test_geodesic_trace_stays_inside_until_escape():
    # the first integral g' sqrt(2 r0 - g^2) is nonzero, so the trace must
    # hit the boundary in finite time: the incompleteness mechanism
    trace = geodesic_trace(r0=0.5, g0=0.2, v0=0.3, dt=1e-3, steps=5000)
    assert trace.inside
    assert trace.escaped
    assert trace.rows[-1, 0] < 5.0
    with pytest.raises(ValueError):
        geodesic_trace(r0=0.5, g0=1.1, v0=0.0)


def test_geodesic_first_integral():
    # g' sqrt(2 r0 - g^2) is conserved; check to integrator accuracy away
    # from the boundary blow-up
    r0 = 0.5
    trace = geodesic_trace(r0=r0, g0=0.1, v0=0.2, dt=1e-3, steps=2000)
    rows = trace.rows[np.abs(trace.rows[:, 1]) < 0.8 * trace.bound]
    e = rows[:, 2] * np.sqrt(2 * r0 - rows[:, 1] ** 2)
    assert np.max(np.abs(e - e[0])) < 1e-8


def test_radial_geometry_bundle():
    p = bs_profile(-1.0, 1.0, 1.0)
    geo = radial_geometry(p, p.r0)
    assert np.isfinite(geo.length_of_radius)
    assert geo.oracle_gap < 1e-6
    assert geo.trace.inside
    with pytest.raises(ValueError):
        radial_geometry(bs_profile(1.0, 1.0, 1.0), 1.0)


@pytest.mark.parametrize(
    "c0, c1",
    [(1.250183769974063, 1.220767396896792), (0.8575349681910281, 1.1980007867243783)],
)
def test_length_at_disk_edge_where_mu_rounds_to_zero(c0, c1):
    # next to r0 these profiles round c1 - 2 c0^2 r to 0, so the integrand
    # must take its boundary limit there instead of evaluating lam
    p = bs_profile(-1.0, c0, c1)
    main = radius_length(p, p.r0)
    oracle = radius_length_riemann(p, p.r0, n=60_000)
    assert np.isfinite(main)
    assert abs(main - oracle) < 1e-6


def scalar_riemann(profile, r0, n):
    """The oracle one node at a time, summed by the builtin ``sum``."""
    tmax = np.sqrt(2.0 * r0)

    def f(theta):
        r = r0 * np.sin(theta) ** 2
        return profile.lam(r) * tmax * np.cos(theta) if r < profile.r_max else 0.0

    h = (np.pi / 2.0) / n
    return float(sum(f(t) for t in (np.arange(n) + 0.5) * h) * h)


DISK_PROFILES = [
    bs_profile(-1.0, 1.250183769974063, 1.220767396896792),
    profile_from_const_and_tau2(-0.8, 1.1, 1.3),
    profile_from_tau1_and_tau2(-1.4, 0.9, 0.75),
]


@pytest.mark.parametrize(
    "profile, n",
    [(p, 2 * RIEMANN_CHUNK + 123) for p in DISK_PROFILES] + [(DISK_PROFILES[0], 60_000)],
    ids=lambda v: getattr(v, "kind", v),
)
def test_riemann_oracle_equals_a_scalar_loop_bitwise(profile, n):
    got = radius_length_riemann(profile, profile.r0, n)
    assert got.hex() == scalar_riemann(profile, profile.r0, n).hex()


def test_riemann_node_below_r_min_raises():
    p = bs_profile(1.0, 1.0, -0.5)  # r_min = 0.25: the first nodes lie below it
    with pytest.raises(ProfileDomainError, match="outside profile domain"):
        radius_length_riemann(p, 1.0, n=100)


def test_riemann_oracle_memory_is_bounded_by_its_chunk():
    p = bs_profile(-1.0, 1.0, 1.2)
    radius_length_riemann(p, p.r0, n=60_000)
    tracemalloc.start()
    try:
        radius_length_riemann(p, p.r0, n=60_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000
