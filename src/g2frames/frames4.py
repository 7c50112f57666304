"""Moving frames on a 4-manifold chart.

From a chart metric this module produces the orthonormal coframe, the
torsion-free connection solving the first structure equation, its curvature,
the induced data on the rank-3 bundles of self-dual / anti-self-dual 2-forms,
and the block decomposition of the curvature operator acting on 2-forms.

Conventions (fixed once, verified by the residual checks and by the
round-sphere anchor below):

* coframe row theta with  d(theta) + theta ^ omega = 0,  omega skew;
* curvature matrix  rho = d(omega) + omega ^ omega;
* duality coframes  e^1 = theta^45 +- theta^67,  e^2 = theta^46 -+ theta^57,
  e^3 = theta^47 +- theta^56  (upper sign: branch +1);
* induced rank-3 connection components
  w^1 = om[4][3,2] +- om[4][1,0] etc., so that d(eta) = eta ^ w holds;
* the sign relating the curvature pairing to the block operator is anchored
  by requiring the unit round sphere to have normalized scalar curvature +1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .exterior import (
    ChunkCache,
    JetForm,
    MatrixForm,
    check,
    combos,
    compounds,
    zero_forms,
)
from .jets import _out
from .jets import table as jet_table

DIM = 4


class NonSPDMetricError(ValueError):
    def __init__(self, point, detail=""):
        self.point = tuple(point)
        super().__init__(f"metric not positive definite at {self.point} {detail}".strip())


class ResidualError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# matrix-jet linear algebra: a matrix of jets is one array, its matrix axes
# first, then the probe axis (on a chunk), then the jet axis


def _jet_array(m, probes=()) -> np.ndarray:
    """A square matrix of jets as one array; an entry constant in the point
    gets the probe axis too."""
    size = m[0][0].table.size
    return np.reshape([np.broadcast_to(e.coef, probes + (size,)) for row in m for e in row], (len(m), len(m)) + probes + (size,))


def _times(m, v) -> np.ndarray:
    """m . v for a matrix of jets m and a matrix of floats v, adding from k = 0."""
    return sum((m[:, k, None] * v[None, k, ..., None] for k in range(1, len(v))), m[:, 0, None] * v[None, 0, ..., None])


def _cholesky(g, point, table, low: int):
    """(a, a^-1 cut to order ``low``): the upper-triangular jet factor of the
    metric jets ``g`` (in ``table``) with a^T a = g, its rows the coframe.
    With a0 the Cholesky factor of the value and E = a0^-T g a0^-1 - I,
    a = (I + U) a0, where the upper-triangular U solves U + U^T + U^T U = E
    (U <- Phi(E - U^T U), with Phi the upper triangle with its diagonal
    halved, is exact to one more order per step), and
    a^-1 = a0^-1 sum_j (-U)^j; each matrix-jet product is one of 0-forms."""
    g0 = np.moveaxis(g[..., 0], (0, 1), (-2, -1))
    try:
        a0 = np.linalg.cholesky(g0).swapaxes(-1, -2)
    except np.linalg.LinAlgError:  # it does not say which pivot failed: name the first pivot i whose
        # leading minor (of order i + 1) is not positive, and its first probe
        bad = ~(np.reshape([np.linalg.det(g0[..., :k, :k]) for k in range(1, DIM + 1)], (DIM, -1)) > 0.0)
        i, probe = np.unravel_index(np.argmax(bad), bad.shape)
        raise NonSPDMetricError(np.reshape(point, (-1, DIM))[probe].tolist(), f"(pivot {i})") from None
    inv0, a0 = (np.moveaxis(x, (-2, -1), (0, 1)) for x in (np.linalg.inv(a0), a0))
    e = _times(_times(g, inv0).swapaxes(0, 1), inv0).swapaxes(0, 1)
    e[..., 0] = 0.0  # a0 is the factor of the value, so U has none
    phi = (np.triu(np.ones((DIM, DIM))) - 0.5 * np.eye(DIM)).reshape((DIM, DIM) + (1,) * (e.ndim - 2))
    u = np.where(phi > 0.0, e * phi, 0.0)
    for _ in range(table.order - 1):
        uu = zero_forms(DIM, table, u.swapaxes(0, 1)) @ zero_forms(DIM, table, u)
        u = np.where(phi > 0.0, (e - uu.coef[..., 0, :]) * phi, 0.0)
    a = _times(u, a0)
    a[..., 0] = a0
    # s = sum_{0 < j <= low} (-U)^j by Horner, s <- -U (I + s)
    low = jet_table(DIM, low)
    s = v = -u[..., : low.size]
    for _ in range(low.order - 1):
        s = v + (zero_forms(DIM, low, v) @ zero_forms(DIM, low, s)).coef[..., 0, :]
    inv = _times(s.swapaxes(0, 1), inv0.swapaxes(0, 1)).swapaxes(0, 1)
    inv[..., 0] = inv0
    return a, inv


# ----------------------------------------------------------------------
# base pipeline


_DUALITY_PAIRS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
_DUALITY_SIGNS = (1.0, -1.0, 1.0)
# positions in combos(4, 2) of the first and second pair of each duality pair
_PAIR_ROWS = ([0, 1, 2], [5, 4, 3])
_SIGN_ROW = np.array(_DUALITY_SIGNS)
# by (b, e): the row in combos(4, 2) of the theta^{be} coefficient of a 2-form
# (6: an appended zero row, so the b = e entries are +0.0) and its sign
_PAIR_INDEX = np.array([[6, 0, 1, 2], [0, 6, 3, 4], [1, 3, 6, 5], [2, 4, 5, 6]])
_PAIR_SIGN = np.sign(np.arange(DIM) - np.arange(DIM)[:, None])


def _duality_rows(m: MatrixForm, branch: float):
    """The three duality components m[3,2] + b m[1,0], m[1,3] - b m[0,2] and
    m[2,1] + b m[3,0] of a 4x4 matrix of forms, on branch b."""
    twin = m.coef[[1, 0, 3], [0, 2, 0]]
    coef = m.coef[[3, 1, 2], [2, 3, 1]] + twin * (branch * _SIGN_ROW).reshape((3,) + (1,) * (twin.ndim - 1))
    return tuple(m.proto._new(m.proto.k, x) for x in coef)


@dataclass(eq=False)
class BaseData:
    """All frame quantities at each point of a chunk, as jets with a leading
    probe axis (``point`` holds one row per probe), or at one point, without
    one (``point`` is that point).

    ``order`` is the jet order of the metric stage; the connection ``conn``
    lives one order lower and the curvature ``curv`` (``None`` below order 2)
    two lower, each a 4x4 ``MatrixForm``; ``frame_c2``, the degree-2 compound
    of ``frame_val``, moves 2-forms from the dx to the theta basis;
    ``_duality`` caches the duality rows of each branch and ``_blocks`` the
    curvature blocks (``chunk_blocks``).
    """

    point: np.ndarray
    order: int
    theta: list
    theta_low: list
    coeff_val: np.ndarray
    frame_val: np.ndarray
    frame_c2: np.ndarray
    conn: MatrixForm
    curv: MatrixForm | None
    _duality: dict = field(default_factory=dict, repr=False)
    _blocks: "SingerThorpe | None" = field(default=None, repr=False)

    def duality(self, branch: int):
        """(eta row, connection row, curvature row) on the chosen branch."""
        if branch not in self._duality:
            if self.curv is None:
                raise ValueError("duality needs curvature: rebuild with order >= 2")
            b = float(branch)
            th = self.theta_low
            eta = tuple(
                th[p[0]].wedge(th[p[1]]) + (b * s) * th[q[0]].wedge(th[q[1]])
                for (p, q), s in zip(_DUALITY_PAIRS, _DUALITY_SIGNS)
            )
            self._duality[branch] = (eta, _duality_rows(self.conn, b), _duality_rows(self.curv, b))
        return self._duality[branch]


class FrameBundle(ChunkCache):
    """Frame calculus over one chart metric, a ``ScalarField`` whose jet is
    the 4x4 matrix of metric jets; ``load`` builds a chunk of base points
    and the ``chunk_*`` readouts take it whole; ``base`` builds one point
    alone, and the per-point methods are the readouts of that build."""

    def __init__(self, metric):
        self.metric = metric

    base = ChunkCache._lone

    def _build(self, point, order):
        m = self.metric.jet(point, order)
        g = _jet_array(m, np.shape(point)[:-1])
        low = order - 1
        coeff, inv_low = (np.moveaxis(x, (0, 1), (-3, -2)) for x in _cholesky(g, point, m[0][0].table, low))
        frame_val = inv_low[..., 0]
        frame_c2 = compounds(frame_val, 2)[2]
        theta = [JetForm._of(DIM, 1, m[0][0].table, coeff[..., a, :, :]) for a in range(DIM)]
        theta_low = [t.truncate(low) for t in theta]
        # d(theta)^a = 1/2 c[a][b][e] theta^b ^ theta^e: substitute
        # dx^i = sum_b inv_low[i][b] theta^b into d(theta)^a and read c off
        rows = [JetForm._of(DIM, 1, theta_low[0].table, inv_low[..., i, :, :]) for i in range(DIM)]
        minors = MatrixForm([[rows[i - 1].wedge(rows[j - 1]) for i, j in combos(DIM, 2)]])
        d_theta = MatrixForm([theta]).d_jets()
        tab = d_theta.proto.table
        c = (minors @ zero_forms(DIM, tab, np.moveaxis(d_theta.coef[0], -2, 0))).coef[0]
        # c[a][b][e], probe axis after the three frame indices
        c = np.moveaxis(c, -2, 1)
        c = np.concatenate([c, np.zeros((DIM, 1) + c.shape[2:])], axis=1)[:, _PAIR_INDEX]
        c = c * _PAIR_SIGN.reshape(_PAIR_SIGN.shape + (1,) * (c.ndim - 3))
        # omega^a_b = sum_e theta^e A[e][b][a], A[e][b][a] = -1/2 (c_abe + c_bea - c_eab)
        w = (c.swapaxes(0, 2) + c.swapaxes(0, 1) - c.swapaxes(1, 2)) * -0.5
        om = MatrixForm([theta_low]) @ zero_forms(DIM, tab, w.reshape((DIM, DIM * DIM) + w.shape[3:]))
        conn = MatrixForm._of(om.proto, om.coef.reshape((DIM, DIM) + om.proto.coef.shape))
        curv = None
        if order >= 2:
            om = conn.truncate(low - 1)
            curv = conn.d_jets() + om @ om
        return BaseData(point, order, theta, theta_low, coeff[..., 0], frame_val, frame_c2, conn, curv)

    # -- residual diagnostics (at each probe of a chunk build) -------------
    def chunk_cartan(self, bd):
        """max |d(theta) + theta ^ omega| over the four components."""
        return (MatrixForm([bd.theta]).d_jets().value() + MatrixForm([bd.theta_low]).value() @ bd.conn.value()).sup()

    def chunk_duality(self, bd, branch: int) -> dict:
        """Structure equation and algebraic Bianchi residuals on one branch."""
        eta, conn3, rho3 = bd.duality(branch)
        eta = MatrixForm([eta])
        eta_val = eta.value()
        struct = (eta.d_jets().value() - eta_val @ check([c.value() for c in conn3])).sup()
        bianchi = (eta_val @ check([r.value() for r in rho3])).sup()
        return {"structure": struct, "bianchi": bianchi}

    def chunk_values(self, bd, expected) -> dict:
        """The frame records' values at each probe of an order-2 build: the
        residuals, and the curvature flags and s against the catalog ``expected``."""
        st = chunk_blocks(bd)
        res = [self.chunk_duality(bd, b) for b in (1, -1)]
        got = predicates(st)
        flags_ok = np.all([getattr(got, k) == getattr(expected, k) for k in ("einstein", "sd", "asd", "scalar_flat")], axis=0)
        return {
            "cartan": self.chunk_cartan(bd),
            "duality-structure": np.maximum(res[0]["structure"], res[1]["structure"]),
            "bianchi": np.maximum(res[0]["bianchi"], res[1]["bianchi"]),
            "block-symmetry": st.sym_residual,
            "trace-identity": st.trace_residual,
            "flag-table": np.maximum(np.where(flags_ok, 0.0, 1.0), abs(st.s - expected.s_value)),
        }

    # the same at one point, from its lone build
    def cartan_residual(self, point):
        return self.chunk_cartan(self.base(point, 2))

    def duality_residuals(self, point, branch: int) -> dict:
        return self.chunk_duality(self.base(point, 2), branch)

    def singer_thorpe(self, point) -> "SingerThorpe":
        """Curvature blocks at a point."""
        return chunk_blocks(self.base(point, 2))


def chunk_blocks(bd) -> "SingerThorpe":
    """The curvature blocks of a build, assembled once per build."""
    if bd._blocks is None:
        bd._blocks = _assemble_blocks(_blocks_raw(bd), pairing_sign())
    return bd._blocks


def _blocks_raw(bd):
    """(A~, B~ on branch +1, B~, C~ on branch -1): the curvature rows read
    on the duality pairs of frame vectors, halved into their sums and
    differences with the twin pairs."""
    # in the theta basis, rho(e_p, e_q) is the theta^pq coefficient
    curv = [r.coef[..., 0] for branch in (1, -1) for r in bd.duality(branch)[2]]
    rows = np.stack(curv, axis=-2) @ bd.frame_c2
    blocks = []
    for rho in (rows[..., :3, :], rows[..., 3:, :]):
        pair, twin = rho[..., _PAIR_ROWS[0]], _SIGN_ROW * rho[..., _PAIR_ROWS[1]]
        blocks += [0.5 * (pair + twin), 0.5 * (pair - twin)]
    return tuple(blocks)


@dataclass(frozen=True)
class SingerThorpe:
    """Blocks of the curvature operator on 2-forms in the duality splitting."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    wplus: np.ndarray
    wminus: np.ndarray
    s: float
    scal: float
    sym_residual: float
    trace_residual: float


def _assemble_blocks(raw, sign):
    """The blocks at one point or at each probe of a chunk."""
    a_t, _, b_t, c_t = raw
    a = -sign * a_t
    c = sign * c_t
    b = sign * b_t
    sym = np.max([np.abs(a - a.swapaxes(-1, -2)), np.abs(c - c.swapaxes(-1, -2))], axis=(0, -2, -1))
    bad = sym > 1e-6
    if np.any(bad):
        raise ResidualError(f"curvature blocks not symmetric ({np.ravel(sym)[np.argmax(bad)]:.2e})")
    tra, trc = np.trace(a, axis1=-2, axis2=-1), np.trace(c, axis1=-2, axis2=-1)
    s = tra / 3.0
    return SingerThorpe(
        a=a,
        b=b,
        c=c,
        wplus=a - (tra / 3.0)[..., None, None] * np.eye(3),
        wminus=c - (trc / 3.0)[..., None, None] * np.eye(3),
        s=_out(s),
        scal=_out(4.0 * tra),
        sym_residual=_out(sym),
        trace_residual=_out(abs(tra - trc)),
    )


@lru_cache(maxsize=1)
def pairing_sign() -> int:
    """Global sign of the curvature pairing, anchored by the unit sphere.

    The one free sign in reading the curvature 2-forms against the dual
    bivectors is chosen so the unit round sphere gets s = +1, and asserted.
    """
    # models imports this module, so importing models at load time would be a cycle
    from .models import get_model

    raw = _blocks_raw(get_model("sphere4").bundle().load((0.12, -0.07, 0.23, 0.18), 2))
    trace = -float(np.trace(raw[0]))  # tr(A) for sign +1
    if abs(abs(trace) - 3.0) > 1e-8:
        raise AssertionError(f"sphere anchor failed: tr A = {trace}")
    return 1 if trace > 0 else -1


# ----------------------------------------------------------------------
# geometric predicates


@dataclass(frozen=True)
class Predicates:
    einstein: bool
    sd: bool
    asd: bool
    scalar_flat: bool
    s: float


def predicates(st: SingerThorpe) -> Predicates:
    """The curvature flags (per probe); a block counts as zero below 1e-7."""
    return Predicates(
        einstein=np.max(np.abs(st.b), axis=(-2, -1)) < 1e-7,
        sd=np.max(np.abs(st.wminus), axis=(-2, -1)) < 1e-7,
        asd=np.max(np.abs(st.wplus), axis=(-2, -1)) < 1e-7,
        scalar_flat=np.abs(st.scal) < 1e-7,
        s=st.s,
    )


# ----------------------------------------------------------------------
# independent curvature oracle (coordinate Christoffel symbols)


def curvature_oracle(metric, point) -> dict:
    """Riemann/Ricci/scalar curvature straight from the coordinate metric, in
    any dimension n.

    Independent of the frame calculus above: it reads the metric's order-2
    jet once and takes g, its first and its second derivatives from the
    Taylor coefficients (a diagonal second derivative is twice its
    coefficient).  Returns the fully lowered Riemann tensor R[i,j,k,l] with
    R(d_k, d_l)d_j = R^m_{jkl} d_m.
    """
    m = metric.jet(point, 2)
    tab, c = m[0][0].table, _jet_array(m)
    n = len(c)
    # prod[a, b]: the position of the product of monomials a and b
    prod = np.zeros((tab.size, tab.size), dtype=np.intp)
    prod[tab.mul_i, tab.mul_j] = tab.mul_k
    g, dg = c[..., 0], c[..., tab.unit_pos]  # dg[i, j, k] = d_k g_ij
    ddg = c[..., prod[np.ix_(tab.unit_pos, tab.unit_pos)]] * (1.0 + np.eye(n))
    ginv = np.linalg.inv(g)
    # Christoffel symbols of the first kind Gamma_{m,ij} and second kind Gamma^m_ij
    first = 0.5 * (np.einsum("mji->mij", dg) + dg - np.einsum("ijm->mij", dg))
    gamma = np.einsum("am,mij->aij", ginv, first)
    # R_ijkl = 1/2 (g_il,jk + g_kj,il) + Gamma_{m,li} Gamma^m_kj - (k <-> l)
    half = 0.5 * (np.einsum("iljk->ijkl", ddg) + np.einsum("kjil->ijkl", ddg))
    half = half + np.einsum("mli,mkj->ijkl", first, gamma)
    riem = half - half.swapaxes(2, 3)
    ric = np.einsum("im,mjil->jl", ginv, riem)
    scal = float(np.einsum("jl,jl->", ginv, ric))
    return {
        "riemann": riem,
        "ricci": ric,
        "scal": scal,
        "einstein_residual": float(np.max(np.abs(ric - (scal / n) * g))),
        "metric": g,
    }


def sectional(oracle: dict, u, v) -> float:
    """Sectional curvature of the plane spanned by vectors u, v:
    R(u, v, u, v) / (|u|^2 |v|^2 - <u, v>^2)."""
    g, r = oracle["metric"], oracle["riemann"]
    area = np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g)
    num, den = np.einsum("xijkl,i,j,k,l->x", np.stack([r, area]), u, v, u, v)
    return float(num / den)
