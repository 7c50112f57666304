"""Charts of the principal SO(3)-bundles of duality coframes.

Chart coordinates are (u1, u2, u3, x4..x7): exponential coordinates on the
rotation fiber first, then base coordinates.  In the local trivialization by
the frame section, the tautological row eta, the total connection and its
curvature are

    eta = eta_base . g,   w = g^t . w_base . g + g^t dg,   rho = g^t . rho_base . g,

with g the Rodrigues rotation of u.  The vertical coframe is f = hat(w) and
the structure forms are phi = lam^3 f^123 -+ lam mu^2 eta.f^t and
psi = mu^4 vol - (lam^2 mu^2 / 2) eta.w.f^t for constant scales lam, mu.
The long list of algebraic and differential identities these satisfy is
exposed as ``identity_residuals`` and checked pointwise in the tests.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from ..exterior import MatrixForm, _hodge_table, check, compounds, hat, max_sup, zero_forms
from ..frames4 import chunk_blocks
from ..g2point import G2Structure, TorsionForms, standard_phi, torsion_decompose
from ..jets import Jet, _out, libm
from ..models import ModelSpec
from .chart import N, Chart, _promoted_rows, components, fiber_form, promote

CHART_BOUND = math.pi - 0.1


class ChartBoundError(ValueError, ArithmeticError):
    def __init__(self, norm):
        super().__init__(
            f"fiber coordinate norm {norm:.4f} outside the exponential chart "
            f"(requires |u| < {CHART_BOUND:.4f})"
        )


SERIES_TERMS = 30


@lru_cache(maxsize=None)
def _series_table(order: int, shift: int):
    """Coefficients (-1)^j perm(j, m) and divisors (2j + shift)! of the terms
    j = m .. m + SERIES_TERMS - 1 of derivative m, one row per m <= order."""
    rows = [range(m, m + SERIES_TERMS) for m in range(order + 1)]
    coef = np.array([[(-1.0) ** j * math.perm(j, m) for j in js] for m, js in enumerate(rows)])
    div = np.array([[float(math.factorial(2 * j + shift)) for j in js] for js in rows])
    return coef, div


def _series_derivs(t, order: int, shift: int) -> list:
    """Derivatives of sum_j (-1)^j t^j / (2j + shift)! at t (shift 1 or 2), a
    float or an array: the powers t^0 .. t^29 in one libm call, then each
    derivative summed term by term from its first, nonzero, term."""
    coef, div = _series_table(order, shift)
    t = np.asarray(t, dtype=float)
    powers = libm(pow, t[..., None], np.arange(SERIES_TERMS))
    sums = np.cumsum(coef * powers[..., None, :] / div, axis=-1)[..., -1]
    return [_out(sums[..., m].reshape(t.shape)) for m in range(order + 1)]


def _base_star(bd) -> np.ndarray:
    """The base Hodge star on 2-forms as one 6x6 matrix in the dx basis."""
    # to the theta basis, the unit-metric star there, back to the dx basis
    sign, comp = _hodge_table(4, 2)
    return (compounds(bd.coeff_val, 2)[2].swapaxes(-1, -2)[..., comp] * sign) @ bd.frame_c2.swapaxes(-1, -2)


def rotation_jets(u_jets) -> Jet:
    """Rodrigues rotation exp(check(u)) = I + s1 check(u) + s2 check(u)^2, with
    check(u)^2 = u u^t - |u|^2 I and s1, s2 analytic in |u|^2: one jet whose
    coefficients carry the 3x3 matrix axes first (then the probe axis), from
    three broadcast jet products, u u^t, s1 u and s2 check(u)^2."""
    u = Jet(u_jets[0].table, np.stack([x.coef for x in u_jets]))
    uut = Jet(u.table, u.coef[:, None]) * Jet(u.table, u.coef[None, :])
    t = Jet(u.table, uut.coef[0, 0] + uut.coef[1, 1] + uut.coef[2, 2])
    s1 = t.compose(_series_derivs(t.value, t.order, 1))
    s2 = t.compose(_series_derivs(t.value, t.order, 2))
    c2 = uut.coef.copy()
    c2[[0, 1, 2], [0, 1, 2]] -= t.coef
    s1u = (s1 * u).coef
    g = np.zeros(c2.shape)  # I + s1 check(u), entered as in exterior.check
    g[[1, 2, 0], [0, 1, 2]] = s1u[[2, 0, 1]]
    g[[0, 1, 2], [1, 2, 0]] = -s1u[[2, 0, 1]]
    g[[0, 1, 2], [0, 1, 2], ..., 0] = 1.0
    return Jet(u.table, g + (s2 * Jet(u.table, c2)).coef)


def _conjugate(m, g, dg=None):
    """g^t . (m . g + dg) for a 3x3 matrix of jet forms m and a rotation g of
    0-forms; the connection carries the g^t dg term, the curvature does not.
    The jets stay the right factor of every wedge: g^t . x is (x^t . g)^t."""
    mg = m @ g
    if dg is not None:  # base labels in m . g, fiber labels in dg: the sums stay disjoint
        mg = mg + dg
    return (mg.T @ g).T


class PSpaceChart(Chart):
    """One branch of the duality coframe bundle with constant scales."""

    def __init__(self, model: ModelSpec, branch: int, lam: float, mu: float):
        super().__init__(model, branch)
        if lam <= 0 or mu <= 0:
            raise ValueError("scales lam, mu must be positive")
        self.lam = float(lam)
        self.mu = float(mu)
        self._structure = standard_phi(self.lam, self.mu, branch)

    def _chunk(self, points, p):
        """All chart quantities on a chunk of points, as 7-variable jet forms."""
        for u in np.reshape(points, (-1, N))[:, :3]:
            unorm = float(np.linalg.norm(u))
            if unorm >= CHART_BOUND:
                raise ChartBoundError(unorm)
        base = self.frame.load(points[..., 3:], p + 1)
        eta4, conn4, rho4 = base.duality(self.branch)
        J = SimpleNamespace(base=base)
        J.theta = tuple(promote(t) for t in base.theta_low)
        u_hi = tuple(Jet.variable(points[..., i], i, N, p + 1) for i in range(3))
        g_hi = rotation_jets(u_hi)
        gm = zero_forms(N, g_hi.table, g_hi.coef).truncate(p)
        J.g_val = np.moveaxis(gm.coef[..., 0, 0], (0, 1), (-2, -1)).copy()
        dg = fiber_form([g_hi.derivative(v) for v in range(3)])
        dg = MatrixForm._of(dg._new(1, dg.coef[0, 0]), dg.coef)
        J.omega = _conjugate(check([promote(w) for w in conn4]), gm, dg)
        J.f = hat(J.omega)
        eta = MatrixForm([[promote(e) for e in eta4]]) @ gm
        rho = _conjugate(check([promote(r) for r in rho4]), gm.truncate(p - 1))
        J.beta = J.f[0].wedge(J.f[1]).wedge(J.f[2])
        vol = J.theta[0].wedge(J.theta[1]).wedge(J.theta[2]).wedge(J.theta[3])
        f_col = MatrixForm([J.f]).T
        eta_f = (eta @ f_col)[0, 0]
        eta_om_f = (eta @ J.omega @ f_col)[0, 0]
        lam, mu, b = self.lam, self.mu, float(self.branch)
        J.phi = J.beta * lam**3 - eta_f * (b * lam * mu**2)
        J.psi = vol * mu**4 - eta_om_f * (lam**2 * mu**2 / 2.0)
        # point values that the identity block and the closed torsion share
        J.f_val, J.rho_hat_val = (MatrixForm([row]).value() for row in (J.f, hat(rho)))
        J.eta_val, J.omega_val, J.rho_val = eta.value(), J.omega.value(), rho.value()
        J.beta_val, J.vol_val = J.beta.value(), vol.value()
        J.d_eta, J.d_eta_f, J.d_eta_om_f = eta.d_jets().value(), eta_f.d_value(), eta_om_f.d_value()
        return J

    @staticmethod
    def _coframe(J) -> np.ndarray:
        """Rows of (f.g^t, theta): the coframe in which phi is standard."""
        g = J.g_val[..., None]
        e = components(J.f + J.theta)
        e[..., :3, :] = np.stack([sum(g[..., j, i, :] * e[..., i, :] for i in range(3)) for j in range(3)], axis=-2)
        return e

    def structure(self) -> G2Structure:
        return self._structure

    # -- identity block -------------------------------------------------------
    def chunk_identities(self, J) -> dict:
        """Pointwise residuals of the structural and algebraic identities."""
        b = float(self.branch)
        f, rho_hat, eta, om, rho = J.f_val, J.rho_hat_val, J.eta_val, J.omega_val, J.rho_val
        beta, vol = J.beta_val, J.vol_val
        st = chunk_blocks(J.base)

        res = {}
        # skewness of the total connection
        res["omega_skew"] = (om + om.T).sup()
        # d eta = eta ^ omega
        eta_om = eta @ om
        res["structure_eta"] = (J.d_eta - eta_om).sup()
        # rho = d omega + omega ^ omega
        omom = om @ om
        res["curvature_def"] = (J.omega.d_jets().value() + omom - rho).sup()
        # eta ^ rho = 0
        res["bianchi"] = (eta @ rho).sup()
        # (1/2) f omega = (om23, om31, om12) = hat(omega omega)
        fom = f @ om
        half_fom = fom * 0.5
        direct = MatrixForm([[f[0, 1].wedge(f[0, 2]), f[0, 2].wedge(f[0, 0]), f[0, 0].wedge(f[0, 1])]])
        res["half_f_omega"] = max_sup([half_fom - direct, half_fom - MatrixForm([hat(omom)])])
        # rho_hat = d f + (1/2) f omega
        res["rho_hat_def"] = (MatrixForm([J.f]).d_jets().value() + half_fom - rho_hat).sup()
        # omega rho_hat^t = -rho f^t
        res["omega_rhohat"] = (om @ rho_hat.T + rho @ f.T).sup()
        # beta = (1/6) f omega f^t
        res["beta_sixth"] = ((fom @ f.T)[0, 0] * (1.0 / 6.0) - beta).sup()
        # omega f^t f = 2 beta 1 = f^t f omega
        omft = om @ f.T
        two_beta = MatrixForm._of(beta, np.eye(3).reshape((3, 3) + (1,) * beta.coef.ndim) * 2.0 * beta.coef)
        res["omega_ftf"] = max_sup([omft @ f - two_beta, f.T @ f @ om - two_beta])
        # omega omega f^t = 0
        res["omega_omega_ft"] = (omom @ f.T).sup()
        # -f rho f^t = f omega rho_hat^t = rho_hat omega f^t = 2 sum rho^i h^i
        f_rho_ft = (f @ rho @ f.T)[0, 0]
        f_om_rh = (fom @ rho_hat.T)[0, 0]
        rh_om_ft = (rho_hat @ om @ f.T)[0, 0]
        twist = (rho_hat @ direct.T)[0, 0] * 2.0
        res["four_forms"] = max_sup([f_rho_ft + f_om_rh, f_om_rh - rh_om_ft, f_om_rh - twist])
        # six/seven-form algebra
        eta_ft = (eta @ f.T)[0, 0]
        eta_rh = (eta @ rho_hat.T)[0, 0]
        f_rh = (f @ rho_hat.T)[0, 0]
        eta_om_ft = (eta_om @ f.T)[0, 0]
        res["alg_frho_etaf"] = (f_rho_ft.wedge(eta_ft) + beta.wedge(eta_rh) * 2.0).sup()
        res["alg_etaomf_etaf"] = (eta_om_ft.wedge(eta_ft) - b * 12.0 * beta.wedge(vol)).sup()
        res["alg_etaf_sq"] = eta_ft.wedge(eta_ft).sup()
        res["alg_etarh_etaf"] = (eta_rh.wedge(eta_ft) - b * 2.0 * vol.wedge(f_rh)).sup()
        # derivative block
        d_eta_ft_expect = (eta @ (omft * 0.5 + rho_hat.T))[0, 0]
        res["d_eta_ft"] = (J.d_eta_f - d_eta_ft_expect).sup()
        res["dbeta"] = (J.beta.d_value() + f_rho_ft * 0.5).sup()
        res["d_eta_omega_ft"] = J.d_eta_om_f.sup()
        # the trace identity eta rho_hat^t = -6 s vol
        res["remarkable_trace"] = (eta_rh + 6.0 * st.s * vol).sup()
        return res

    # -- torsion ---------------------------------------------------------------
    def chunk_torsion_closed(self, J) -> TorsionForms:
        """Closed-form torsion (tau1 = tau2 = 0 for constant scales)."""
        s = chunk_blocks(J.base).s
        lam, mu, b = self.lam, self.mu, float(self.branch)
        tau0 = b * (6.0 / (7.0 * lam * mu**2)) * (mu**2 + 2.0 * s * lam**2)
        star_rho = MatrixForm([_lift_star([J.rho_hat_val[0, i] for i in range(3)], _base_star(J.base))])
        tau3 = (
            (star_rho @ J.f_val.T)[0, 0] * lam**2
            - (J.eta_val @ J.f_val.T)[0, 0] * ((mu**2 - 12.0 * s * lam**2) / 7.0)
            + J.beta_val * (b * (30.0 * s * lam**4 / mu**2 - 6.0 * lam**2) / 7.0)
        )
        return self._closed_torsion(J, self._structure, tau0, tau3)

    def chunk_torsion_numeric(self, J) -> TorsionForms:
        return torsion_decompose(self._structure, *J.adapted)

    # the same at one point, from its lone build
    def identity_residuals(self, point) -> dict:
        return self.chunk_identities(self.jets(point, 1))

    def sample_points(self, count: int, rng) -> np.ndarray:
        """Seeded probes: u in the ball |u| < 2.2, well inside the exponential
        chart (|u| < ``CHART_BOUND``), base in the safe box."""
        return self._sample(count, rng, 2.2, lambda u: np.linalg.norm(u) < 2.2)


def _lift_star(forms, star) -> list:
    """The base star ``star`` on purely horizontal 2-forms, lifted to the chart."""
    rows = _promoted_rows(2)
    out = []
    for mv in forms:
        if np.delete(mv.coef, rows, axis=-2).any():
            raise ValueError("form is not horizontal")
        lifted = np.zeros(mv.coef.shape)
        lifted[..., rows, :] = star @ mv.coef[..., rows, :]
        out.append(mv._new(2, lifted))
    return out
