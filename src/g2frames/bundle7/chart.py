"""What the 2-form bundle and coframe bundle charts share.

Both are 7-dimensional charts with fiber coordinates first (labels 1..3) and
base coordinates last (labels 4..7).  A subclass builds every chart quantity
at one point as 7-variable jet forms (``_build``); this base keeps only the
latest ``(point, order)`` build, reads the structure forms and their exterior
derivatives off them, and compares closed and numeric torsion.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..exterior import JetForm, combo_pos, combos
from ..g2point import TorsionForms
from ..jets import _embed_index
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
    order = jf.table.order
    out = JetForm(N, jf.k, table=jet_table(N, order))
    cols = _embed_index(jf.table.nvars, order, N, _BASE_POSITIONS)
    out.coef[np.ix_(_promoted_rows(jf.k), cols)] = jf.coef
    return out


def fiber_form(jets) -> JetForm:
    """The 1-form sum_v jets[v] du^v over the three fiber coordinates."""
    coef = np.zeros((N, jets[0].table.size))
    coef[:3] = [j.coef for j in jets]
    return JetForm._of(N, 1, jets[0].table, coef)


def components(forms) -> np.ndarray:
    """Rows: values of the 1-forms' components over (dx1, ..., dx7)."""
    return np.array([jf.coef[:, 0] for jf in forms])


def torsion_gap(closed: TorsionForms, numeric: TorsionForms) -> float:
    """Componentwise gap between closed and numeric torsion forms."""
    gaps = [
        abs(closed.tau0 - numeric.tau0),
        (closed.tau1 - numeric.tau1).sup(),
        (closed.tau2 - numeric.tau2).sup(),
        (closed.tau3 - numeric.tau3).sup(),
    ]
    return float(np.max(gaps))  # a NaN gap propagates


class Chart:
    """One branch of a rank-3 bundle chart over a catalog model.

    Subclasses provide ``_build(point, order)``, returning an object with at
    least ``phi`` and ``psi`` jet forms, and ``adapted_coframe``,
    ``torsion_closed`` and ``torsion_numeric``.
    """

    def __init__(self, model: ModelSpec, branch: int):
        if branch not in (1, -1):
            raise ValueError("branch must be +1 or -1")
        self.model = model
        self.branch = branch
        self.frame = model.bundle()
        self._last = None  # (key, build) of the latest build only

    def jets(self, point, order: int = 1):
        key = (tuple(float(v) for v in point), order)
        last = self._last
        if last is None or last[0] != key:
            last = self._last = (key, self._build(key[0], order))
        return last[1]

    def phi_at(self, point):
        return self.jets(point, 1).phi.value()

    def psi_at(self, point):
        return self.jets(point, 1).psi.value()

    def dphi_at(self, point):
        return self.jets(point, 1).phi.d_value()

    def dpsi_at(self, point):
        return self.jets(point, 1).psi.d_value()

    def adapted_derivatives(self, point):
        """(d phi, d psi) in the adapted coframe, where phi is standard."""
        p = np.linalg.inv(self.adapted_coframe(point))
        return self.dphi_at(point).transform(p), self.dpsi_at(point).transform(p)

    def torsion_gap(self, point) -> float:
        """Componentwise gap between the closed and numeric torsion forms."""
        return torsion_gap(self.torsion_closed(point), self.torsion_numeric(point))

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
