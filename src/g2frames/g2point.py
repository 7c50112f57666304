"""Pointwise G2 linear algebra on an oriented 7-dimensional inner-product space.

Labels 1..3 span the vertical (fiber) directions f^i, labels 4..7 the
horizontal ones e^alpha.  The orientation is fixed once and for all as
o = f^123 ^ e^4567.  The ``branch`` argument (+1 or -1) selects which of the
two horizontal duality pairings e^i is used and ties the sign of the mixed
term of the structure 3-form to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exterior import VALUE, JetForm, MatrixForm, Multivector, _label_array, combos
from .jets import _out

VERT = (1, 2, 3)
HORIZ = (4, 5, 6, 7)


class DegeneratePhiError(ValueError):
    def __init__(self, rank: int):
        self.rank = rank
        super().__init__(f"degenerate 3-form: induced bilinear form has rank {rank}")


class DecompositionError(ValueError):
    def __init__(self, residual_phi: float, residual_psi: float, mem2: float, mem3: float):
        self.residual_phi = residual_phi
        self.residual_psi = residual_psi
        self.membership_w2 = mem2
        self.membership_w3 = mem3
        super().__init__(
            "torsion reconstruction failed "
            f"(residuals {residual_phi:.3e}, {residual_psi:.3e}; "
            f"memberships {mem2:.3e}, {mem3:.3e}); "
            "inputs do not arise from this structure in the adapted basis"
        )


def duality_pairing(branch: int):
    """The three horizontal 2-forms e^1, e^2, e^3 of the chosen branch."""
    b = float(branch)
    e1 = Multivector.basis(7, (4, 5)) + b * Multivector.basis(7, (6, 7))
    e2 = Multivector.basis(7, (4, 6)) - b * Multivector.basis(7, (5, 7))
    e3 = Multivector.basis(7, (4, 7)) + b * Multivector.basis(7, (5, 6))
    return (e1, e2, e3)


@lru_cache(maxsize=None)
def _unit_forms(branch: int):
    """(degree, coefficients, vertical label count of each row, as a column)
    of phi and psi at lam = mu = 1; a row with v vertical and h horizontal
    labels scales by lam**v * mu**h."""
    f = [Multivector.basis(7, (i,)) for i in VERT]
    h = [f[1].wedge(f[2]), f[2].wedge(f[0]), f[0].wedge(f[1])]
    eta = MatrixForm([duality_pairing(branch)])
    phi = f[0].wedge(h[0]) - branch * (eta @ MatrixForm([f]).T)[0, 0]
    psi = Multivector.basis(7, HORIZ) - (eta @ MatrixForm([h]).T)[0, 0]
    return tuple((m.k, m.coef, np.sum(_label_array(7, m.k) < 3, axis=1)[:, None]) for m in (phi, psi))


@lru_cache(maxsize=None)
def _unit_structure_split(branch: int):
    """Eigen-split of tau -> *(tau ^ phi) on 2-forms, and the 3-form kernel
    of wedging with (phi, psi), both at lam = mu = 1.

    Returns (w14_eigenvalue, proj14, proj27) in the orthonormal coefficient
    basis.  The eigenvalue carrying the 14-dimensional space is detected
    numerically rather than hard-coded, so it stays convention-proof.
    """
    s = standard_phi(1.0, 1.0, branch)
    ones = np.ones(7)
    lmat = np.array([Multivector.basis(7, idx).wedge(s.phi).hodge(ones).coef[:, 0] for idx in combos(7, 2)]).T
    asym = np.max(np.abs(lmat - lmat.T))
    if asym > 1e-12:
        raise AssertionError(f"wedge-star operator not symmetric ({asym:.2e})")
    evals, evecs = np.linalg.eigh((lmat + lmat.T) / 2.0)
    rounded = np.round(evals).astype(int)
    counts = {v: int(np.sum(rounded == v)) for v in set(rounded)}
    if sorted(counts.values()) != [7, 14] or np.max(np.abs(evals - rounded)) > 1e-10:
        raise AssertionError(f"unexpected 2-form eigenstructure: {counts}")
    e14 = next(v for v, c in counts.items() if c == 14)
    v14 = evecs[:, rounded == e14]
    proj14 = v14 @ v14.T

    basis3 = [Multivector.basis(7, idx) for idx in combos(7, 3)]
    constraints = np.array([np.concatenate([b.wedge(s.phi).coef, b.wedge(s.psi).coef], axis=None) for b in basis3]).T
    _, sv, vt = np.linalg.svd(constraints)
    null = vt[int(np.sum(sv > 1e-10)) :]
    proj27 = null.T @ null
    if null.shape[0] != 27:
        raise AssertionError(f"3-form kernel has dimension {null.shape[0]}, not 27")
    return float(e14), proj14, proj27


def _scale(lam, mu, v: int, h: int):
    """lam**v * mu**h, at each probe for arrays of scales; a power that
    overflows, or a scale that underflows to 0, raises an ArithmeticError
    naming it (at the first such probe)."""
    if np.ndim(lam):
        return np.array([_scale(a, b, v, h) for a, b in zip(lam.tolist(), mu.tolist())])
    try:
        out = lam**v * mu**h
    except OverflowError:
        raise OverflowError(f"lam**{v} * mu**{h} overflows at lam = {lam!r}, mu = {mu!r}") from None
    if out == 0.0:
        raise FloatingPointError(f"lam**{v} * mu**{h} underflows to 0 at lam = {lam!r}, mu = {mu!r}")
    return out


def larger(a, b):
    """``max(a, b)`` at each probe as Python takes it: a NaN ``b`` is passed over."""
    return _out(np.where(b > a, b, a))


class G2Structure:
    """The pair (phi, psi) with its induced metric data at a point, or at each
    probe of a chunk when ``lam`` and ``mu`` are arrays."""

    def __init__(self, lam, mu, branch: int):
        if np.any(np.asarray(lam) <= 0) or np.any(np.asarray(mu) <= 0):
            raise ValueError("positive definiteness requires lam, mu > 0")
        if branch not in (1, -1):
            raise ValueError("branch must be +1 or -1")
        self.lam = lam = _out(np.asarray(lam, dtype=float))
        self.mu = mu = _out(np.asarray(mu, dtype=float))
        self.branch = branch
        self.g_diag = np.stack([_scale(lam, mu, 2, 0)] * 3 + [_scale(lam, mu, 0, 2)] * 4, axis=-1)
        self.m = _scale(lam, mu, 3, 4)
        self.phi, self.psi = (
            JetForm._of(7, k, VALUE, coef * np.stack([_scale(lam, mu, v, k - v) for v in range(k + 1)], -1)[..., vert])
            for k, coef, vert in _unit_forms(branch)
        )

    # -- conveniences ----------------------------------------------------
    def hodge(self, a: Multivector) -> Multivector:
        return a.hodge(self.g_diag)

    def gnorm(self, a: Multivector) -> float:
        return a.gnorm(self.g_diag)

    @property
    def w14_eigenvalue(self) -> float:
        return _unit_structure_split(self.branch)[0]

    def _scaled_proj(self, which: int, k: int):
        w = np.sqrt(np.prod(self.g_diag[..., _label_array(7, k)], axis=-1))
        return (w[..., :, None] * _unit_structure_split(self.branch)[which]) / w[..., None, :]

    # one matrix-vector product per probe, as at a single point
    def project_w14(self, a: Multivector) -> Multivector:
        return a._new(2, self._scaled_proj(1, 2) @ a.coef)

    def project_w27(self, a: Multivector) -> Multivector:
        return a._new(3, self._scaled_proj(2, 3) @ a.coef)

    def membership_w2(self, tau2: Multivector):
        """|tau2 ^ phi - e14 *tau2|: zero when tau2 lies in the W2 summand."""
        return self.gnorm(tau2.wedge(self.phi) - self.w14_eigenvalue * self.hodge(tau2))

    def membership_w3(self, tau3: Multivector):
        """The larger of |tau3 ^ phi| and |tau3 ^ psi|: zero when tau3 lies in W3."""
        return larger(self.gnorm(tau3.wedge(self.phi)), self.gnorm(tau3.wedge(self.psi)))


def standard_phi(lam: float, mu: float, branch: int) -> G2Structure:
    """Adapted-basis structure with vertical scale lam, horizontal scale mu."""
    return G2Structure(lam, mu, branch)


@dataclass(frozen=True)
class MetricFromPhi:
    gram: np.ndarray
    m: float
    signature: tuple
    definite: bool


def metric_from_phi(phi: Multivector) -> MetricFromPhi:
    """Recover the induced metric, normalizer m, and signature from a 3-form.

    The bilinear form b(u, v) = coefficient of (u . phi)^(v . phi)^phi against
    the fixed orientation satisfies b = sign * 6 m G with m^2 = 1/|o|_G^2;
    the unique normalization with det G > 0 is returned.  b counts as
    degenerate below a relative size of 1e-10.
    """
    if phi.n != 7 or phi.k != 3:
        raise ValueError("expected a 3-form in dimension 7")
    b = np.zeros((7, 7))
    contractions = [phi.interior(vec) for vec in np.eye(7)]
    for u in range(7):
        for v in range(u, 7):
            top = contractions[u].wedge(contractions[v]).wedge(phi)
            b[u, v] = b[v, u] = top.coef[0, 0]
    det_b = float(np.linalg.det(b))
    floor = 1e-10 * (float(np.max(np.abs(b))) or 1.0)
    if abs(det_b) < floor**7:
        raise DegeneratePhiError(int(np.linalg.matrix_rank(b, tol=floor)))
    eps = 1.0 if det_b > 0 else -1.0
    m = (eps * det_b / 6.0**7) ** (1.0 / 9.0)
    gram = eps * b / (6.0 * m)
    eigs = np.linalg.eigvalsh(gram)
    signature = (int(np.sum(eigs > 0)), int(np.sum(eigs < 0)))
    return MetricFromPhi(gram=gram, m=m, signature=signature, definite=signature == (7, 0))


@dataclass(frozen=True)
class TorsionForms:
    """Torsion components of (dphi, dpsi) in the adapted basis."""

    tau0: float
    tau1: Multivector
    tau2: Multivector
    tau3: Multivector
    residual_phi: float
    residual_psi: float
    membership_w2: float
    membership_w3: float

    def norms(self, g_diag) -> dict:
        return {
            "tau0": abs(self.tau0),
            "tau1": self.tau1.gnorm(g_diag),
            "tau2": self.tau2.gnorm(g_diag),
            "tau3": self.tau3.gnorm(g_diag),
        }


def torsion_decompose(s: G2Structure, dphi: Multivector, dpsi: Multivector) -> TorsionForms:
    """Split (dphi, dpsi) into the four torsion components.

    tau0 from the degree-7 pairing (dphi)^phi = 7 tau0 Vol; tau1 from the
    coclosure side; tau2 as the 14-dimensional eigenspace component of the
    dpsi remainder; tau3 as the Hodge dual of the dphi remainder.  The
    reconstruction fails when a residual exceeds 1e-9 of the input's size; on
    a chunk, the failure names the first failing probe's residuals.
    """
    if dphi.n != 7 or dphi.k != 4 or dpsi.k != 5:
        raise ValueError("expected a 4-form and a 5-form in dimension 7")
    vol_coef = s.m
    tau0 = dphi.wedge(s.phi).coef[..., 0, 0] / (7.0 * vol_coef)
    star_dpsi = s.hodge(dpsi)
    tau1 = s.hodge(star_dpsi.wedge(s.psi)) * (1.0 / 3.0)
    remainder_psi = dpsi - tau1.wedge(s.psi)
    e14 = s.w14_eigenvalue
    tau2 = s.project_w14(s.hodge(remainder_psi)) * (1.0 / e14)
    tau3 = s.hodge(dphi - tau0 * s.psi - 0.75 * tau1.wedge(s.phi))

    rebuilt_phi = tau0 * s.psi + 0.75 * tau1.wedge(s.phi) + s.hodge(tau3)
    rebuilt_psi = tau1.wedge(s.psi) + tau2.wedge(s.phi)
    res_phi = s.gnorm(dphi - rebuilt_phi)
    res_psi = s.gnorm(dpsi - rebuilt_psi)
    mem2, mem3 = s.membership_w2(tau2), s.membership_w3(tau3)
    # the two equations are always solvable, so genuineness of the input
    # shows up in the membership residuals, not only in reconstruction
    scale = larger(larger(1.0, s.gnorm(dphi)), s.gnorm(dpsi))
    bad = np.ravel(larger(larger(larger(res_phi, res_psi), mem2), mem3) > 1e-9 * scale)
    if bad.any():
        raise DecompositionError(*(np.ravel(r)[bad.argmax()] for r in (res_phi, res_psi, mem2, mem3)))
    return TorsionForms(
        tau0=_out(tau0),
        tau1=tau1,
        tau2=tau2,
        tau3=tau3,
        residual_phi=res_phi,
        residual_psi=res_psi,
        membership_w2=mem2,
        membership_w3=mem3,
    )


@dataclass(frozen=True)
class TorsionClass:
    active: tuple
    parallel: bool
    calibrated: bool
    cocalibrated: bool
    nearly_parallel_candidate: bool
    pure: str | None
    label: str


def classify(t: TorsionForms, g_diag) -> TorsionClass:
    """Name the torsion type by which components exceed the tolerance."""
    return classify_norms(t.norms(g_diag))


def classify_norms(norms: dict) -> TorsionClass:
    """Classification from (possibly aggregated) torsion component norms.

    A component is inactive only when its norm is at most 1e-6, so a NaN
    norm counts as active.
    """
    active = tuple(
        name
        for name, key in (("W0", "tau0"), ("W1", "tau1"), ("W2", "tau2"), ("W3", "tau3"))
        if not norms[key] <= 1e-6
    )
    calibrated = all(n not in active for n in ("W0", "W1", "W3"))
    cocalibrated = all(n not in active for n in ("W1", "W2"))
    parallel = not active
    pure = active[0] if len(active) == 1 else None
    nearly = pure == "W0"
    if parallel:
        label = "parallel"
    elif nearly:
        label = "nearly parallel candidate"
    else:
        bits = ["pure " + pure] if pure else [" + ".join(active)]
        if cocalibrated:
            bits.append("cocalibrated")
        if calibrated:
            bits.append("calibrated")
        label = ", ".join(bits)
    return TorsionClass(
        active=active,
        parallel=parallel,
        calibrated=calibrated,
        cocalibrated=cocalibrated,
        nearly_parallel_candidate=nearly,
        pure=pure,
        label=label,
    )
