"""Charts of the rank-3 2-form bundles over a 4-manifold model.

Chart coordinates are (a1, a2, a3, x4..x7): fiber coordinates first, in the
norm-sqrt(2) duality coframe, then base coordinates.  The canonical data is

    eta   -- the pulled-back duality 2-forms,
    f     -- da - a.omega, the vertical coframe,
    h     -- (f^23, f^31, f^12),
    beta  -- f^123,       vol -- pulled-back base volume,

and the structure forms phi = lam^3 beta -+ lam mu^2 eta.f^t,
psi = mu^4 vol - lam^2 mu^2 eta.h^t with radial scales lam(r), mu(r),
r = |a|^2.  Exterior derivatives are evaluated two independent ways: by jet
differentiation of the assembled coefficients and by the closed structure
system; the torsion cross-check below is the central test of the package.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..exterior import MatrixForm, Multivector, check, contract
from ..frames4 import chunk_blocks
from ..g2point import G2Structure, TorsionForms, standard_phi, torsion_decompose
from ..jets import Jet, libm
from ..models import ModelSpec
from .chart import N, Chart, components, fiber_form, promote

# largest Weyl norm on the side the branch needs to vanish
HYP_TOL = 1e-7
# relative distance probes keep from a zero of the radial factor (the disk
# edge r0, or r_min > 0 when s > 0 and c1 < 0), where lam blows up.  Sized
# from the noise law: at 1 - r/r0 = 1e-2 the worst X record reads 2e-4 of its
# tolerance, at 3e-4 it reads 0.7, and at 1e-4 most 5-probe runs fail the
# torsion reconstruction.  Like pspace.CHART_BOUND, it keeps probes where double
# precision can verify them.
EDGE_MARGIN = 1e-2


class DualityHypothesisError(ValueError, ArithmeticError):
    def __init__(self, branch, norm):
        side = "anti-self-dual (W+ = 0)" if branch == 1 else "self-dual (W- = 0)"
        super().__init__(
            f"base model violates the {side} hypothesis for branch {int(branch):+d}: "
            f"residual Weyl norm {norm:.3e}"
        )


class XSpaceChart(Chart):
    """One branch of the 2-form bundle over a catalog model, with a profile."""

    def __init__(self, model: ModelSpec, branch: int, profile):
        super().__init__(model, branch)
        self.profile = profile

    def _chunk(self, points, p):
        """All chart quantities on a chunk of points, as 7-variable jet forms."""
        base = self.frame.load(points[..., 3:], p + 1)
        eta4, conn4, rho4 = base.duality(self.branch)
        J = SimpleNamespace(base=base)
        J.theta = tuple(promote(t) for t in base.theta_low)
        eta_row = tuple(promote(e) for e in eta4)
        J.a = tuple(Jet.variable(points[..., i], i, N, p) for i in range(3))
        om = check([promote(w) for w in conn4])
        da = [fiber_form([Jet.constant(float(i == v), N, p) for v in range(3)]) for i in range(3)]
        f = J.f = tuple(da[i] - contract([om[j, i] for j in range(3)], J.a) for i in range(3))
        J.h = (f[1].wedge(f[2]), f[2].wedge(f[0]), f[0].wedge(f[1]))
        J.beta = f[0].wedge(f[1]).wedge(f[2])
        vol = J.theta[0].wedge(J.theta[1]).wedge(J.theta[2]).wedge(J.theta[3])
        J.r = J.a[0] * J.a[0] + J.a[1] * J.a[1] + J.a[2] * J.a[2]
        lam_p = self.profile.lam_jet(J.r.value, p)
        mu_p = self.profile.mu_jet(J.r.value, p)
        J.lam = J.r.compose([lam_p.coef[..., k] * _FACT[k] for k in range(p + 1)])
        J.mu = J.r.compose([mu_p.coef[..., k] * _FACT[k] for k in range(p + 1)])
        eta = MatrixForm([eta_row])
        mixed = (eta @ MatrixForm([J.f]).T)[0, 0]
        eta_h = (eta @ MatrixForm([J.h]).T)[0, 0]
        J.phi = J.beta * (J.lam**3) - mixed * (J.lam * J.mu**2 * float(self.branch))
        J.psi = vol * (J.mu**4) - eta_h * (J.lam**2 * J.mu**2)
        # point values that the closed system and the closed torsion share
        J.lam1, J.mu1 = lam_p.truncate(1), mu_p.truncate(1)
        J.a_val = np.stack([a.value for a in J.a], axis=-1)
        J.f_val, J.h_val, J.eta_val = (MatrixForm([row]).value() for row in (J.f, J.h, eta_row))
        J.rho_val = check([promote(r).value() for r in rho4])
        J.beta_val, J.vol_val = J.beta.value(), vol.value()
        J.dr = contract(J.f_val, J.a_val.T) * 2.0
        J.d_eta_at, J.d_eta_h = contract(eta_row, J.a).d_value(), eta_h.d_value()
        J.s7 = standard_phi(J.lam.value, J.mu.value, self.branch)
        return J

    @staticmethod
    def _coframe(J) -> np.ndarray:
        """Rows: components of (f1, f2, f3, theta4..theta7) over (da, dx)."""
        return components(J.f + J.theta)

    def structure(self, point) -> G2Structure:
        return self.jets(point, 1).s7

    # -- two evaluation paths for d(phi), d(psi) ----------------------------
    def chunk_residuals(self, J) -> dict:
        """Residuals of the closed differential system against jet evaluation."""
        a_val, f_val, h_val, eta_val, dr, rho_m = J.a_val, J.f_val, J.h_val, J.eta_val, J.dr, J.rho_val
        b = float(self.branch)

        # d r = 2 f a^t
        dr_direct = Multivector(N, 1, np.concatenate([2.0 * a_val, np.zeros(a_val.shape[:-1] + (4,))], axis=-1))
        a_val = a_val.T
        res = {"dr": (dr - dr_direct).sup()}

        # d(eta a^t) = eta ^ f^t
        eta_f = (eta_val @ f_val.T)[0, 0]
        res["d_eta_at"] = (J.d_eta_at - eta_f).sup()

        # d beta = h rho a^t
        h_rho_a = contract(h_val @ rho_m, a_val)
        res["dbeta"] = (J.beta.d_value() - h_rho_a).sup()

        # d(eta h^t) = -eta fcheck rho a^t
        eta_fc_rho_a = contract(eta_val @ check(f_val) @ rho_m, a_val)
        res["d_eta_ht"] = (J.d_eta_h + eta_fc_rho_a).sup()

        # closed structure system for d phi and d psi
        lam1, mu1 = J.lam1, J.mu1
        lam3, lam2, mu2 = libm(pow, J.lam.value, 3), libm(pow, J.lam.value, 2), libm(pow, J.mu.value, 2)
        d_lam3 = (lam1**3).partial(0)
        d_lammu2 = (lam1 * mu1**2).partial(0)
        d_mu4 = (mu1**4).partial(0)
        d_lam2mu2 = (lam1**2 * mu1**2).partial(0)
        eta_h = (eta_val @ h_val.T)[0, 0]
        dphi_closed = (
            dr.wedge(J.beta_val) * d_lam3
            + h_rho_a * lam3
            - b * d_lammu2 * dr.wedge(eta_f)
        )
        dpsi_closed = (
            dr.wedge(J.vol_val) * d_mu4
            - d_lam2mu2 * dr.wedge(eta_h)
            + eta_fc_rho_a * (lam2 * mu2)
        )
        res["dphi_system"] = (J.dphi - dphi_closed).sup()
        res["dpsi_system"] = (J.dpsi - dpsi_closed).sup()
        return res

    # -- torsion, two ways ---------------------------------------------------
    def _singer_thorpe(self, J):
        st = chunk_blocks(J.base)
        wrong = st.wplus if self.branch == 1 else st.wminus
        norm = np.ravel(np.max(np.abs(wrong), axis=(-2, -1)))
        if np.any(norm > HYP_TOL):
            raise DualityHypothesisError(self.branch, norm[np.argmax(norm > HYP_TOL)])
        return st

    def chunk_torsion_closed(self, J) -> TorsionForms:
        """Closed-form torsion components in the adapted basis."""
        s = self._singer_thorpe(J).s
        b = float(self.branch)
        a_val, f_val, h_val, eta_val, lam1, mu1 = J.a_val.T, J.f_val, J.h_val, J.eta_val, J.lam1, J.mu1
        lam, mu = lam1.value, mu1.value
        lam2, lam3, lam4, mu2, mu4 = (libm(pow, v, e) for v, e in ((lam, 2), (lam, 3), (lam, 4), (mu, 2), (mu, 4)))
        t1_coef = (2.0 / (3.0 * lam2 * mu4)) * (
            (lam1**2 * mu1**4).partial(0) - s * lam4 * mu2
        )
        tau1 = J.dr * t1_coef

        t2_coef = (mu1**2 / lam1**2).partial(0) - 2.0 * s
        h_at = contract(h_val, a_val)
        eta_at = contract(eta_val, a_val)
        tau2 = (h_at * (4.0 * lam3 / (3.0 * mu2)) + eta_at * (b * 2.0 * lam / 3.0)) * (
            -b * t2_coef
        )

        rho_b = J.rho_val + check(eta_val) * (b * s)
        tau3 = contract(f_val @ rho_b, a_val) * (-b * lam2)
        return self._closed_torsion(J, J.s7, 0.0, tau3, (tau1, tau2))

    def chunk_torsion_numeric(self, J) -> TorsionForms:
        """Torsion via jet differentiation and the pointwise decomposition."""
        return torsion_decompose(J.s7, *J.adapted)

    # the same at one point, from its lone build
    def structure_residuals(self, point) -> dict:
        return self.chunk_residuals(self.jets(point, 1))

    def sample_points(self, count: int, rng, a_max: float = 1.2) -> np.ndarray:
        """Seeded probes: base in the model safe box, fiber within |a| <= a_max
        and inside the profile domain, ``EDGE_MARGIN`` away from its edges:
        r < (1 - EDGE_MARGIN) r0 on a disk and r >= (1 + EDGE_MARGIN) r_min."""
        prof = self.profile
        lo = prof.r_min * (1.0 + EDGE_MARGIN)
        hi = prof.r_max if prof.r0 is None else prof.r0 * (1.0 - EDGE_MARGIN)
        return self._sample(count, rng, a_max, lambda a: lo <= float(a @ a) < hi)


_FACT = (1.0, 1.0, 2.0, 6.0)
