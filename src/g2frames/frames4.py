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
    max_sup,
    per_probe,
    readout,
    zero_forms,
)
from .jets import Jet, _out

DIM = 4


class NonSPDMetricError(ValueError):
    def __init__(self, point, detail=""):
        self.point = tuple(point)
        super().__init__(f"metric not positive definite at {self.point} {detail}".strip())


class ResidualError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# jet linear algebra helpers


def _jet_cholesky(g, point):
    """Upper-triangular coefficient matrix a with a^T a = g (rows = coframe);
    a failing pivot names the point (the first failing row on a chunk)."""
    n = len(g)
    c = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            acc = g[i][j]
            for k in range(j):
                acc = acc - c[i][k] * c[j][k]
            if i == j:
                if np.any(acc.value <= 0.0):
                    raise NonSPDMetricError(np.reshape(point, (-1, n))[np.argmax(acc.value <= 0.0)].tolist(), f"(pivot {i})")
                c[i][i] = acc.sqrt()
            else:
                c[i][j] = acc / c[j][j]
    # theta^a = sum_i a[a][i] dx^i with a[a][i] = c[i][a]
    zero = Jet.constant(0.0, g[0][0].nvars, g[0][0].order)
    return [[c[i][a] if i >= a else zero for i in range(n)] for a in range(n)]


def _upper_inverse(a):
    """Inverse of an upper-triangular jet matrix."""
    n = len(a)
    zero = a[0][0] * 0.0
    inv = [[zero] * n for _ in range(n)]
    for b in range(n):
        for i in range(n - 1, -1, -1):
            acc = Jet.constant(1.0 if i == b else 0.0, a[0][0].nvars, a[0][0].order)
            for j in range(i + 1, n):
                acc = acc - a[i][j] * inv[j][b]
            inv[i][b] = acc / a[i][i]
    return inv


def _truncate_matrix(m, order):
    return [[e.truncate(order) for e in row] for row in m]


def _jet_array(m) -> np.ndarray:
    """A square matrix of jets as one array ``probes + (n, n, size)``."""
    coefs = np.broadcast_arrays(*(e.coef for row in m for e in row))
    return np.stack(coefs, axis=-2).reshape(coefs[0].shape[:-1] + (len(m), len(m), -1))


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
    probe axis (``point`` holds one row per probe).

    ``order`` is the jet order of the metric stage; the connection ``conn``
    lives one order lower and the curvature ``curv`` (``None`` below order 2)
    two lower, each a 4x4 ``MatrixForm``; ``frame_c2``, the degree-2 compound
    of ``frame_val``, moves 2-forms from the dx to the theta basis;
    ``readouts`` caches the chunk's blocks and residuals.
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
    readouts: dict = field(default_factory=dict, repr=False)

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
    the 4x4 matrix of metric jets; ``load`` builds a chunk of base points,
    the ``chunk_*`` readouts take it whole, ``base`` one point's row."""

    def __init__(self, metric):
        self.metric = metric

    base = ChunkCache._row

    def _build(self, point, order):
        # a metric entry constant in the point gets the chunk's probe axis too
        probes = np.shape(point)[:-1]
        g = [[Jet(e.table, np.broadcast_to(e.coef, probes + e.coef.shape[-1:])) for e in row] for row in self.metric.jet(point, order)]
        coeff = _jet_cholesky(g, point)
        low = order - 1
        inv_low = _jet_array(_upper_inverse(_truncate_matrix(coeff, low)))
        coeff = _jet_array(coeff)
        frame_val = inv_low[..., 0]
        frame_c2 = compounds(frame_val, 2)[2]
        theta = [JetForm._of(DIM, 1, g[0][0].table, coeff[..., a, :, :]) for a in range(DIM)]
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

    def _at(self, point):
        return self.base(point, 2)

    # -- residual diagnostics (at each probe of a chunk build) -------------
    def chunk_cartan(self, bd):
        """max |d(theta) + theta ^ omega| over the four components."""
        residuals = []
        for a in range(DIM):
            acc = bd.theta[a].d_value()
            for b in range(DIM):
                acc = acc + bd.theta_low[b].value().wedge(bd.conn[b, a].value())
            residuals.append(acc)
        return max_sup(residuals)

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

    # the same at one point, from its row of the loaded chunk
    cartan_residual = per_probe(chunk_cartan)
    duality_residuals = per_probe(chunk_duality)

    @per_probe
    def singer_thorpe(self, bd) -> "SingerThorpe":
        """Curvature blocks at a point, assembled once per chunk build."""
        return chunk_blocks(bd)


def chunk_blocks(bd) -> "SingerThorpe":
    """The curvature blocks of a chunk build, assembled once per build."""
    return readout(bd, "blocks", lambda bd: _assemble_blocks(_blocks_raw(bd), pairing_sign()))


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
