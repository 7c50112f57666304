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
    JetForm,
    MatrixForm,
    check,
    combos,
    compounds,
    max_sup,
    zero_forms,
)
from .jets import Jet

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
    """Upper-triangular coefficient matrix a with a^T a = g (rows = coframe)."""
    n = len(g)
    c = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            acc = g[i][j]
            for k in range(j):
                acc = acc - c[i][k] * c[j][k]
            if i == j:
                if acc.value <= 0.0:
                    raise NonSPDMetricError(point, f"(pivot {i})")
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


def _jet_matrix_inverse(m):
    """Gauss-Jordan inverse of a jet matrix (pivots by value)."""
    n = len(m)
    work = [row[:] for row in m]
    nv, order = m[0][0].nvars, m[0][0].order
    inv = [
        [Jet.constant(1.0 if i == j else 0.0, nv, order) for j in range(n)] for i in range(n)
    ]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(work[r][col].value))
        if abs(work[piv][col].value) < 1e-14:
            raise ZeroDivisionError("singular jet matrix")
        work[col], work[piv] = work[piv], work[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        scale = work[col][col].reciprocal()
        work[col] = [e * scale for e in work[col]]
        inv[col] = [e * scale for e in inv[col]]
        for r in range(n):
            if r != col:
                f = work[r][col]
                work[r] = [e - f * w for e, w in zip(work[r], work[col])]
                inv[r] = [e - f * w for e, w in zip(inv[r], inv[col])]
    return inv


def _truncate_matrix(m, order):
    return [[e.truncate(order) for e in row] for row in m]


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
_PAIR_SIGN = np.sign(np.arange(DIM) - np.arange(DIM)[:, None])[..., None]


def _duality_rows(m: MatrixForm, branch: float):
    """The three duality components m[3,2] + b m[1,0], m[1,3] - b m[0,2] and
    m[2,1] + b m[3,0] of a 4x4 matrix of forms, on branch b."""
    coef = m.coef[[3, 1, 2], [2, 3, 1]] + m.coef[[1, 0, 3], [0, 2, 0]] * (branch * _SIGN_ROW)[:, None, None]
    return tuple(m.proto._new(m.proto.k, x) for x in coef)


@dataclass(eq=False)
class BaseData:
    """All frame quantities at one chart point, as jets.

    ``order`` is the jet order of the metric stage; the connection ``conn``
    lives one order lower and the curvature ``curv`` (``None`` below order 2)
    two lower, each a 4x4 ``MatrixForm``; ``frame_c2``, the degree-2 compound
    of ``frame_val``, moves 2-forms from the dx to the theta basis;
    ``blocks`` caches ``singer_thorpe``.
    """

    point: tuple
    order: int
    theta: list
    theta_low: list
    coeff_val: np.ndarray
    frame_val: np.ndarray
    frame_c2: np.ndarray
    conn: MatrixForm
    curv: MatrixForm | None
    _duality: dict = field(default_factory=dict, repr=False)
    blocks: "SingerThorpe | None" = field(default=None, repr=False)

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


class FrameBundle:
    """Frame calculus over one chart metric, a ``ScalarField`` whose jet is
    the 4x4 matrix of metric jets."""

    def __init__(self, metric):
        self.metric = metric
        self._last = None  # (key, BaseData) of the latest build only

    def base(self, point, order: int) -> BaseData:
        key = (tuple(float(v) for v in point), order)
        last = self._last
        if last is None or last[0] != key:
            last = self._last = (key, self._build(key[0], order))
        return last[1]

    def _build(self, point, order):
        g = self.metric.jet(point, order)
        coeff = _jet_cholesky(g, point)
        coeff_val = np.array([[e.value for e in row] for row in coeff])
        low = order - 1
        coeff_low = _truncate_matrix(coeff, low)
        inv_low = _upper_inverse(coeff_low)
        frame_val = np.array([[e.value for e in row] for row in inv_low])
        frame_c2 = compounds(frame_val, 2)[2]
        theta = [JetForm._of(DIM, 1, coeff[0][0].table, np.array([e.coef for e in row])) for row in coeff]
        theta_low = [t.truncate(low) for t in theta]
        # d(theta)^a = 1/2 c[a][b][e] theta^b ^ theta^e: substitute
        # dx^i = sum_b inv_low[i][b] theta^b into d(theta)^a and read c off
        rows = [JetForm._of(DIM, 1, inv_low[0][0].table, np.array([e.coef for e in row])) for row in inv_low]
        minors = MatrixForm([[rows[i - 1].wedge(rows[j - 1]) for i, j in combos(DIM, 2)]])
        d_theta = MatrixForm([theta]).d_jets()
        tab = d_theta.proto.table
        c = (minors @ zero_forms(DIM, tab, d_theta.coef[0].swapaxes(0, 1))).coef[0]
        c = np.concatenate([c, np.zeros((DIM, 1, tab.size))], axis=1)[:, _PAIR_INDEX] * _PAIR_SIGN
        # omega^a_b = sum_e theta^e A[e][b][a], A[e][b][a] = -1/2 (c_abe + c_bea - c_eab)
        w = (c.transpose(2, 1, 0, 3) + c.transpose(1, 0, 2, 3) - c.transpose(0, 2, 1, 3)) * -0.5
        om = MatrixForm([theta_low]) @ zero_forms(DIM, tab, w.reshape(DIM, DIM * DIM, tab.size))
        conn = MatrixForm._of(om.proto, om.coef.reshape((DIM, DIM) + om.proto.coef.shape))
        curv = None
        if order >= 2:
            om = conn.truncate(low - 1)
            curv = conn.d_jets() + om @ om
        return BaseData(point, order, theta, theta_low, coeff_val, frame_val, frame_c2, conn, curv)

    # -- residual diagnostics -------------------------------------------
    def cartan_residual(self, point) -> float:
        """max |d(theta) + theta ^ omega| over the four components."""
        bd = self.base(point, 2)
        residuals = []
        for a in range(DIM):
            acc = bd.theta[a].d_value()
            for b in range(DIM):
                acc = acc + bd.theta_low[b].value().wedge(bd.conn[b, a].value())
            residuals.append(acc)
        return max_sup(residuals)

    def duality_residuals(self, point, branch: int) -> dict:
        """Structure equation and algebraic Bianchi residuals on one branch."""
        eta, conn3, rho3 = self.base(point, 2).duality(branch)
        eta = MatrixForm([eta])
        eta_val = eta.value()
        struct = (eta.d_jets().value() - eta_val @ check([c.value() for c in conn3])).sup()
        bianchi = (eta_val @ check([r.value() for r in rho3])).sup()
        return {"structure": struct, "bianchi": bianchi}

    # -- curvature blocks --------------------------------------------------
    def singer_thorpe(self, point) -> "SingerThorpe":
        """Curvature blocks at ``point``, assembled once per base build."""
        bd = self.base(point, 2)
        if bd.blocks is None:
            bd.blocks = _assemble_blocks(self._blocks_raw(point), pairing_sign())
        return bd.blocks

    def _blocks_raw(self, point):
        """(A~, B~ on branch +1, B~, C~ on branch -1): the curvature rows read
        on the duality pairs of frame vectors, halved into their sums and
        differences with the twin pairs."""
        bd = self.base(point, 2)
        # in the theta basis, rho(e_p, e_q) is the theta^pq coefficient
        rows = np.array([r.coef[:, 0] for branch in (1, -1) for r in bd.duality(branch)[2]]) @ bd.frame_c2
        blocks = []
        for rho in (rows[:3], rows[3:]):
            pair, twin = rho[:, _PAIR_ROWS[0]], _SIGN_ROW * rho[:, _PAIR_ROWS[1]]
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
    a_t, _, b_t, c_t = raw
    a = -sign * a_t
    c = sign * c_t
    b = sign * b_t
    sym = float(np.max([np.abs(a - a.T), np.abs(c - c.T)]))
    if sym > 1e-6:
        raise ResidualError(f"curvature blocks not symmetric ({sym:.2e})")
    tra, trc = float(np.trace(a)), float(np.trace(c))
    s = tra / 3.0
    return SingerThorpe(
        a=a,
        b=b,
        c=c,
        wplus=a - (tra / 3.0) * np.eye(3),
        wminus=c - (trc / 3.0) * np.eye(3),
        s=s,
        scal=4.0 * tra,
        sym_residual=sym,
        trace_residual=abs(tra - trc),
    )


@lru_cache(maxsize=1)
def pairing_sign() -> int:
    """Global sign of the curvature pairing, anchored by the unit sphere.

    The one free sign in reading the curvature 2-forms against the dual
    bivectors is chosen so the unit round sphere gets s = +1, and asserted.
    """
    # models imports this module, so importing models at load time would be a cycle
    from .models import get_model

    raw = get_model("sphere4").bundle()._blocks_raw((0.12, -0.07, 0.23, 0.18))
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


def predicates(st: SingerThorpe, tol: float = 1e-7) -> Predicates:
    return Predicates(
        einstein=float(np.max(np.abs(st.b))) < tol,
        sd=float(np.max(np.abs(st.wminus))) < tol,
        asd=float(np.max(np.abs(st.wplus))) < tol,
        scalar_flat=abs(st.scal) < tol,
        s=st.s,
    )


# ----------------------------------------------------------------------
# independent curvature oracle (coordinate Christoffel symbols)


def curvature_oracle(metric, point) -> dict:
    """Riemann/Ricci/scalar curvature straight from the coordinate metric.

    Independent of the frame calculus above; used to cross-check signs and
    values.  Returns the fully lowered Riemann tensor R[i,j,k,l] with
    R(d_k, d_l)d_j = R^m_{jkl} d_m.
    """
    g = metric.jet(point, 2)
    g_low = _truncate_matrix(g, 1)
    ginv = _jet_matrix_inverse(g_low)
    gamma = [[[None] * DIM for _ in range(DIM)] for _ in range(DIM)]
    dg = [[[g[i][j].derivative(k) for k in range(DIM)] for j in range(DIM)] for i in range(DIM)]
    for i in range(DIM):
        for j in range(DIM):
            for k in range(j, DIM):
                acc = None
                for l in range(DIM):
                    term = ginv[i][l] * (dg[l][k][j] + dg[j][l][k] - dg[j][k][l])
                    acc = term if acc is None else acc + term
                gamma[i][j][k] = gamma[i][k][j] = acc * 0.5
    riem_up = np.zeros((DIM,) * 4)
    for i in range(DIM):
        for j in range(DIM):
            for k in range(DIM):
                for l in range(DIM):
                    val = gamma[i][l][j].partial(k) - gamma[i][k][j].partial(l)
                    for m in range(DIM):
                        val += (
                            gamma[i][k][m].value * gamma[m][l][j].value
                            - gamma[i][l][m].value * gamma[m][k][j].value
                        )
                    riem_up[i, j, k, l] = val
    gval = np.array([[g[i][j].value for j in range(DIM)] for i in range(DIM)])
    ginv_val = np.linalg.inv(gval)
    riem = np.einsum("im,mjkl->ijkl", gval, riem_up)
    ric = np.einsum("ijil->jl", riem_up)
    scal = float(np.einsum("jl,jl->", ginv_val, ric))
    einstein_residual = float(np.max(np.abs(ric - (scal / 4.0) * gval)))
    return {
        "riemann": riem,
        "ricci": ric,
        "scal": scal,
        "einstein_residual": einstein_residual,
        "metric": gval,
    }


def sectional(oracle: dict, u, v) -> float:
    """Sectional curvature of the plane spanned by vectors u, v."""
    g, r = oracle["metric"], oracle["riemann"]
    uu = float(u @ g @ u)
    vv = float(v @ g @ v)
    uv = float(u @ g @ v)
    num = float(np.einsum("ijkl,i,j,k,l->", r, u, v, u, v))
    return num / (uu * vv - uv * uv)
