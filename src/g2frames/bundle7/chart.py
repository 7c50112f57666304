"""What the 2-form bundle and coframe bundle charts share.

Both are 7-dimensional charts with fiber coordinates first (labels 1..3) and
base coordinates last (labels 4..7).  A subclass builds what its readouts
and callers read at each point of a chunk, as 7-variable jet forms with a
leading probe axis (``_chunk``), and names its adapted coframe
(``_coframe``); this base keeps only the latest chunk build, adds to it d phi,
d psi, the adapted coframe, its inverse's compounds and (d phi, d psi) in that
coframe, and ends the closed torsion of both charts.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..exterior import ChunkCache, JetForm, Multivector, combo_pos, combos, compounds
from ..g2point import TorsionForms
from ..jets import _embed_index, _out
from ..jets import table as jet_table
from ..models import ModelSpec

N = 7
_BASE_POSITIONS = (3, 4, 5, 6)
# consecutive rejected fiber draws after which sampling gives up
MAX_REJECTED_DRAWS = 10_000


class SamplingError(ValueError):
    """No fiber draw lands in the accepted region."""


@lru_cache(maxsize=None)
def _promoted_rows(k: int) -> np.ndarray:
    """Chart positions of the base k-indices, labels shifted by 3."""
    pos = combo_pos(N, k)
    return np.array([pos[tuple(l + 3 for l in key)] for key in combos(4, k)], dtype=np.intp)


def promote(jf: JetForm) -> JetForm:
    """Lift a base jet form (labels 1..4) to the chart (labels 4..7)."""
    tab = jet_table(N, jf.table.order)
    out = np.zeros(jf.probes + (len(combos(N, jf.k)), tab.size))
    cols = _embed_index(jf.table.nvars, tab.order, N, _BASE_POSITIONS)
    out[..., _promoted_rows(jf.k)[:, None], cols] = jf.coef
    return JetForm._of(N, jf.k, tab, out)


def fiber_form(jets) -> JetForm:
    """The 1-form sum_v jets[v] du^v over the three fiber coordinates."""
    coefs = np.stack(np.broadcast_arrays(*(j.coef for j in jets)), axis=-2)
    coef = np.zeros(coefs.shape[:-2] + (N, coefs.shape[-1]))
    coef[..., :3, :] = coefs
    return JetForm._of(N, 1, jets[0].table, coef)


def components(forms) -> np.ndarray:
    """Rows: values of the 1-forms' components over (dx1, ..., dx7)."""
    return np.stack([jf.coef[..., 0] for jf in forms], axis=-2)


def _adapt(comp, mv: Multivector) -> Multivector:
    """``mv.transform`` by the inverse adapted coframe, from its compounds."""
    return mv._new(mv.k, comp[mv.k].swapaxes(-1, -2) @ mv.coef)


def torsion_gap(closed: TorsionForms, numeric: TorsionForms):
    """Componentwise gap between closed and numeric torsion forms, per probe."""
    gaps = [
        abs(closed.tau0 - numeric.tau0),
        (closed.tau1 - numeric.tau1).sup(),
        (closed.tau2 - numeric.tau2).sup(),
        (closed.tau3 - numeric.tau3).sup(),
    ]
    return _out(np.max(np.broadcast_arrays(*gaps), axis=0))  # a NaN gap propagates


class Chart(ChunkCache):
    """One branch of a rank-3 bundle chart over a catalog model.

    Subclasses provide ``_chunk(points, order)``, returning a namespace with
    at least ``phi`` and ``psi`` jet forms over a chunk of points;
    ``_coframe(J)``, the adapted coframe of a build; and the readouts of a
    build ``chunk_torsion_closed`` and ``chunk_torsion_numeric``.  A caller
    at one point reads its lone build (``jets``) and the readouts of it.
    """

    def __init__(self, model: ModelSpec, branch: int):
        if branch not in (1, -1):
            raise ValueError("branch must be +1 or -1")
        self.model = model
        self.branch = branch
        self.frame = model.bundle()

    def _build(self, points, order):
        """The chunk build, with d phi, d psi, the adapted coframe (rows over
        (du, dx)), (d phi, d psi) in it and its inverse's compounds."""
        J = self._chunk(points, order)
        J.dphi, J.dpsi = J.phi.d_value(), J.psi.d_value()
        J.coframe = self._coframe(J)
        comp = compounds(np.linalg.inv(J.coframe), 5)
        J.adapted = (_adapt(comp, J.dphi), _adapt(comp, J.dpsi))
        J.compounds = comp[:4]  # the closed torsion adapts forms of degree <= 3
        return J

    jets = ChunkCache._lone  # the build at one point, without a probe axis

    def adapted_derivatives(self, point):
        """(d phi, d psi) in the adapted coframe, where phi is standard."""
        return self.jets(point, 1).adapted

    # the torsion readouts at one point, from its lone build
    def torsion_closed(self, point) -> TorsionForms:
        return self.chunk_torsion_closed(self.jets(point, 1))

    def torsion_numeric(self, point) -> TorsionForms:
        return self.chunk_torsion_numeric(self.jets(point, 1))

    def torsion_gap(self, point) -> float:
        """Componentwise gap between the closed and numeric torsion forms."""
        return torsion_gap(self.torsion_closed(point), self.torsion_numeric(point))

    @staticmethod
    def _closed_torsion(J, s7, tau0: float, tau3, tau12=None) -> TorsionForms:
        """Closed torsion forms moved to the adapted coframe, with their W2
        and W3 membership; ``tau12 = None`` stands for tau1 = tau2 = 0."""
        t3a = _adapt(J.compounds, tau3)
        mem3 = s7.membership_w3(t3a)
        if tau12 is None:
            t1a, t2a, mem2 = Multivector(N, 1), Multivector(N, 2), 0.0
        else:
            t1a, t2a = (_adapt(J.compounds, t) for t in tau12)
            mem2 = s7.membership_w2(t2a)
        return TorsionForms(
            tau0, t1a, t2a, t3a, residual_phi=0.0, residual_psi=0.0, membership_w2=mem2, membership_w3=mem3
        )

    def _sample(self, count: int, rng, bound: float, accept) -> np.ndarray:
        """Seeded probes: fiber coordinates uniform in [-bound, bound]^3 and
        kept when ``accept`` holds, base in the model safe box.  Raises
        ``SamplingError`` after ``MAX_REJECTED_DRAWS`` rejections in a row."""
        pts = np.empty((count, N))
        got = rejected = 0
        while got < count:
            v = rng.uniform(-bound, bound, size=3)
            if not accept(v):
                rejected += 1
                if rejected == MAX_REJECTED_DRAWS:
                    raise SamplingError(f"{rejected} fiber draws in a row from [-{bound}, {bound}]^3 missed")
                continue
            rejected = 0
            pts[got, :3] = v
            pts[got, 3:] = self.model.sample_points(1, rng)[0]
            got += 1
        return pts
