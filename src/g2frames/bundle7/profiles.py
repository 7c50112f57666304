"""Radial scale profiles lam(r), mu(r) for the rank-3 bundle charts.

A profile provides 1-variable jets of both scales on an explicit domain in
the half-square-radius r.  The closed-form families below each enforce two
of the three mutually coupled conditions

    lam * mu constant,      tau1 = 0,      tau2 = 0,

so the third can be verified numerically (any two imply the third).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..jets import Jet, libm


class ProfileDomainError(ValueError, ArithmeticError):
    pass


@dataclass(frozen=True)
class Profile:
    """Positive radial scales with jets, on the open interval (r_min, r_max)."""

    lam_fn: object
    mu_fn: object
    r_min: float
    r_max: float
    kind: str
    params: dict = field(default_factory=dict)
    r0: float | None = None

    def _check(self, r):
        inside = (self.r_min <= r) & (r < self.r_max)
        if not (inside if isinstance(inside, bool) else inside.all()):
            bad = float(np.ravel(r)[np.argmin(np.ravel(inside))])
            raise ProfileDomainError(
                f"r = {bad:.6g} outside profile domain [{self.r_min:.6g}, {self.r_max:.6g})"
                + (f"; violated bound r < r0 = {self.r0:.6g}" if self.r0 is not None else "")
            )

    # r is a float or an array of radii, whose jets then carry a probe axis
    def lam_jet(self, r, order: int) -> Jet:
        self._check(r)
        return self.lam_fn(Jet.variable(r, 0, 1, order))

    def mu_jet(self, r, order: int) -> Jet:
        self._check(r)
        return self.mu_fn(Jet.variable(r, 0, 1, order))

    def lam(self, r):
        """lam at a radius, or at an array of radii: ``lam_fn`` once on
        order-0 jets with a probe axis, equal to lam at each radius bit for
        bit.  The first radius outside the domain raises."""
        return self.lam_jet(r, 0).value

    def mu(self, r: float) -> float:
        return self.mu_jet(r, 0).value

    def condition_residuals(self, s: float, r) -> dict:
        """Residuals of the three coupled conditions at a radius (or an array)."""
        lam = self.lam_jet(r, 1)
        mu = self.mu_jet(r, 1)
        const = (lam * mu).partial(0)
        t1 = (lam**2 * mu**4).partial(0) - s * libm(pow, lam.value, 4) * libm(pow, mu.value, 2)
        t2 = (mu**2 / lam**2).partial(0) - 2.0 * s
        return {"const": abs(const), "tau1": abs(t1), "tau2": abs(t2)}


def constant_profile(lam: float, mu: float) -> Profile:
    if lam <= 0 or mu <= 0:
        raise ValueError("profile scales must be positive")
    return Profile(
        lam_fn=lambda r: r * 0.0 + lam,
        mu_fn=lambda r: r * 0.0 + mu,
        r_min=0.0,
        r_max=np.inf,
        kind="constant",
        params={"lam": lam, "mu": mu},
    )


def _power_family(s, scale_lam, scale_mu, rate, offset, kind, params):
    """lam^2 = scale_lam * v^(-1/2), mu^2 = scale_mu * v^(1/2), v = rate*s*r + offset."""
    if s <= 0 and offset <= 0:
        raise ProfileDomainError("empty domain: the linear radial factor is never positive")
    slope = rate * s
    r_min = -offset / slope if offset < 0 else 0.0  # offset < 0 only when s > 0
    r0 = offset / -slope if s < 0 else None
    # derived constants that must be positive: one that overflows to inf or
    # underflows to 0 leaves the scales or the domain wrong
    for name, value, used in (
        ("lam^2 scale", scale_lam, True),
        ("mu^2 scale", scale_mu, True),
        ("radial rate", abs(slope), s != 0),
        ("r_min", r_min, offset < 0),
        ("disk radius r0", r0, s < 0),
    ):
        if used and not 0.0 < value < np.inf:
            flow = "overflows to inf" if value else "underflows to 0"
            raise ProfileDomainError(f"the {kind} profile's {name} {flow}")

    def lam_fn(r):
        v = slope * r + offset
        return (scale_lam * v.power(-0.5)).sqrt()

    def mu_fn(r):
        v = slope * r + offset
        return (scale_mu * v.power(0.5)).sqrt()

    return Profile(
        lam_fn=lam_fn,
        mu_fn=mu_fn,
        r_min=r_min,
        r_max=np.inf if r0 is None else r0,
        kind=kind,
        params=params,
        r0=r0,
    )


def bs_profile(s: float, c0: float, c1: float) -> Profile:
    """The unique family with lam*mu = c0 and tau1 = 0:
    mu^4 = 2 c0^2 s r + c1, lam^2 = c0^2 / mu^2.  For s < 0 the domain is
    the disk r < r0 = -c1 / (2 c0^2 s)."""
    if c0 <= 0:
        raise ValueError("c0 must be positive")
    return _power_family(
        s,
        scale_lam=c0**2,
        scale_mu=1.0,
        rate=2.0 * c0**2,
        offset=c1,
        kind="bs",
        params={"s": s, "c0": c0, "c1": c1},
    )


def profile_from_const_and_tau2(s: float, c0: float, k: float) -> Profile:
    """Enforce lam*mu = c0 and the tau2 condition mu^2/lam^2 = 2 s r + k."""
    if c0 <= 0:
        raise ValueError("c0 must be positive")
    return _power_family(
        s,
        scale_lam=c0,
        scale_mu=c0,
        rate=2.0,
        offset=k,
        kind="const+tau2",
        params={"s": s, "c0": c0, "k": k},
    )


def profile_from_tau1_and_tau2(s: float, c: float, k: float) -> Profile:
    """Enforce both first-order conditions; lam^2 = c (2sr+k)^(-1/2),
    mu^2 = c (2sr+k)^(1/2) solves them simultaneously."""
    if c <= 0:
        raise ValueError("c must be positive")
    return _power_family(
        s,
        scale_lam=c,
        scale_mu=c,
        rate=2.0,
        offset=k,
        kind="tau1+tau2",
        params={"s": s, "c": c, "k": k},
    )


def random_smooth_profile(rng) -> Profile:
    """A generic admissible profile on [0, 20): exp of a small affine-plus-sine
    term, so both scales stay within a couple of orders of magnitude."""
    pc = rng.uniform(-1.0, 1.0, size=3) * (0.3, 0.12, 0.3)
    qc = rng.uniform(-1.0, 1.0, size=3) * (0.3, 0.12, 0.3)

    def make(c0, c1, c2):
        def fn(r):
            return (float(c0) + float(c1) * r + float(c2) * r.sin()).exp()

        return fn

    return Profile(
        lam_fn=make(*pc),
        mu_fn=make(*qc),
        r_min=0.0,
        r_max=20.0,
        kind="random",
        params={"p": list(pc), "q": list(qc)},
    )


def two_of_three_report(profile: Profile, s: float, r_samples) -> dict:
    """Worst-case residuals of all three conditions over the samples, all
    evaluated in one batch; a NaN at any sample propagates."""
    res = profile.condition_residuals(s, np.asarray(r_samples, dtype=float))
    return {key: float(np.max(res[key])) for key in ("const", "tau1", "tau2")}
