"""Radial length and vertical geodesics on the disk-bundle charts.

The fiber-radius length integral has an integrable endpoint singularity at
the disk boundary; the substitution t = sqrt(2 r0) sin(theta) removes it,
after which adaptive Simpson quadrature converges quickly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .profiles import Profile


# bisection depth after which adaptive Simpson gives up
MAX_DEPTH = 40
# nodes per batch of the Riemann oracle: bounds its working memory (a
# 60,000-node call peaks at 6.8 MB of allocations in one batch, 0.5 MB in
# batches of 4,096)
RIEMANN_CHUNK = 4096


class QuadratureError(RuntimeError):
    pass


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-8) -> float:
    """Classic adaptive Simpson with Richardson correction."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    half = 1.0 / np.sqrt(2.0)  # sqrt-2 tolerance split survives weak endpoint singularities

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        xm = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        fl, fr = f(xl), f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        delta = left + right - whole
        if abs(delta) <= 15.0 * eps or (x2 - x0) < 1e-13:
            return left + right + delta / 15.0
        if depth >= MAX_DEPTH:
            raise QuadratureError(f"quadrature failed to converge on [{x0}, {x2}]")
        return recurse(x0, xm, f0, fl, f1, left, eps * half, depth + 1) + recurse(
            xm, x2, f1, fr, f2, right, eps * half, depth + 1
        )

    f0, f1, f2 = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, f0, f1, f2)
    return recurse(a, b, f0, f1, f2, whole, tol, 0)


def _radius_integrand(profile: Profile, r0: float):
    """Integrand of the radius length after t = sqrt(2 r0) sin(theta), at one
    angle or at an array of angles (one batch through ``lam_fn``).  Where r
    reaches the edge r_max (theta = pi/2) it takes its boundary limit 0: the
    cos factor kills the lam blow-up."""
    tmax = np.sqrt(2.0 * r0)

    def f(theta):
        r = r0 * np.sin(theta) ** 2
        if np.ndim(r) == 0:
            return profile.lam(r) * tmax * np.cos(theta) if r < profile.r_max else 0.0
        out = np.zeros(r.shape)
        inside = r < profile.r_max
        out[inside] = profile.lam(r[inside]) * tmax * np.cos(theta[inside])
        return out

    return f


def radius_length(profile: Profile, r0: float) -> float:
    """Length of a fiber radius, int_0^sqrt(2 r0) lam(t^2/2) dt."""
    return adaptive_simpson(_radius_integrand(profile, r0), 0.0, np.pi / 2.0)


def radius_length_riemann(profile: Profile, r0: float, n: int = 60_000) -> float:
    """Midpoint Riemann sum oracle for the same integral.  The nodes run in
    chunks of ``RIEMANN_CHUNK``, one batch each, and are added strictly left
    to right, so the sum equals a one-node-at-a-time loop bit for bit."""
    f = _radius_integrand(profile, r0)
    h = (np.pi / 2.0) / n
    total = 0.0
    for start in range(0, n, RIEMANN_CHUNK):
        thetas = (np.arange(start, min(start + RIEMANN_CHUNK, n)) + 0.5) * h
        total = np.cumsum(np.concatenate(([total], f(thetas))))[-1]
    return float(total * h)


def geodesic_trace(r0: float, g0: float, v0: float, dt: float = 1e-3, steps: int = 2000):
    """Fixed-step RK4 trace of the vertical radial geodesic equation
    g''(2 r0 - g^2) - g'^2 g = 0, from (g(0), g'(0)) = (g0, v0).

    The equation conserves g' sqrt(2 r0 - g^2), so any solution with
    g'(0) != 0 runs into the disk boundary in finite time (the metric is
    incomplete); the trace is truncated just before the boundary and the
    escape is reported through ``GeodesicTrace.escaped``.
    """
    bound = np.sqrt(2.0 * r0)
    if abs(g0) >= bound:
        raise ValueError(f"initial radius |g0| must be below sqrt(2 r0) = {bound:.6g}")

    def acc(g, v):
        return v * v * g / (2.0 * r0 - g * g)

    rows = []
    g, v = float(g0), float(v0)
    escaped = False
    for i in range(steps + 1):
        rows.append((i * dt, g, v))
        k1g, k1v = v, acc(g, v)
        k2g, k2v = v + 0.5 * dt * k1v, acc(g + 0.5 * dt * k1g, v + 0.5 * dt * k1v)
        k3g, k3v = v + 0.5 * dt * k2v, acc(g + 0.5 * dt * k2g, v + 0.5 * dt * k2v)
        k4g, k4v = v + dt * k3v, acc(g + dt * k3g, v + dt * k3v)
        g_next = g + dt / 6.0 * (k1g + 2 * k2g + 2 * k3g + k4g)
        if abs(g_next) >= 0.98 * bound:
            escaped = True
            break
        g = g_next
        v += dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return GeodesicTrace(rows=np.array(rows), bound=bound, escaped=escaped)


@dataclass(frozen=True)
class GeodesicTrace:
    rows: np.ndarray
    bound: float
    escaped: bool

    @property
    def inside(self) -> bool:
        return bool(np.all(np.abs(self.rows[:, 1]) < self.bound))


@dataclass(frozen=True)
class RadialGeometry:
    length_of_radius: float
    oracle_gap: float
    trace: "GeodesicTrace"


def radial_geometry(profile: Profile, r0: float) -> RadialGeometry:
    """Radius length (with Riemann oracle gap) and a geodesic trace from
    g = 0.3 sqrt(2 r0), g' = 0.1."""
    if profile.r0 is None:
        raise ValueError("radial geometry needs a disk profile (s < 0)")
    length = radius_length(profile, r0)
    oracle = radius_length_riemann(profile, r0)
    trace = geodesic_trace(r0, 0.3 * np.sqrt(2.0 * r0), 0.1)
    return RadialGeometry(length_of_radius=length, oracle_gap=abs(length - oracle), trace=trace)
