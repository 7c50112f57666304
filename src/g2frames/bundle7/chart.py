"""What the 2-form bundle and coframe bundle charts share.

Both are 7-dimensional charts with fiber coordinates first (labels 1..3) and
base coordinates last (labels 4..7).  A subclass builds every chart quantity
at one point as 7-variable jet forms (``_build``); this base caches those
builds per ``(point, order)``, reads the structure forms and their exterior
derivatives off them, and compares closed and numeric torsion.
"""

from __future__ import annotations

import numpy as np

from ..exterior import FormField, JetForm, ScalarField, combos
from ..g2point import TorsionForms
from ..jets import Jet
from ..models import ModelSpec

N = 7
_BASE_POSITIONS = (3, 4, 5, 6)


def promote(jf: JetForm) -> JetForm:
    """Lift a base jet form (labels 1..4) to the chart (labels 4..7)."""
    return JetForm(
        N,
        jf.k,
        {tuple(l + 3 for l in key): jet.embed(N, _BASE_POSITIONS) for key, jet in jf.c.items()},
    )


def contract(forms, weights):
    """Linear combination sum_i weights[i] * forms[i], added left to right."""
    acc = forms[0] * weights[0]
    for f, w in zip(forms[1:], weights[1:]):
        acc = acc + f * w
    return acc


def components(forms) -> np.ndarray:
    """Rows: values of the 1-forms' components over (dx1, ..., dx7)."""
    e = np.zeros((len(forms), N))
    for i, jf in enumerate(forms):
        for (lab,), jet in jf.c.items():
            e[i, lab - 1] = jet.value
    return e


def torsion_gap(closed: TorsionForms, numeric: TorsionForms) -> float:
    """Componentwise gap between closed and numeric torsion forms."""
    return max(
        abs(closed.tau0 - numeric.tau0),
        (closed.tau1 - numeric.tau1).sup(),
        (closed.tau2 - numeric.tau2).sup(),
        (closed.tau3 - numeric.tau3).sup(),
    )


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
        self._cache = {}

    def jets(self, point, order: int = 1):
        key = (tuple(float(v) for v in point), order)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = self._build(key[0], order)
        return hit

    def phi_at(self, point):
        return self.jets(point, 1).phi.value()

    def psi_at(self, point):
        return self.jets(point, 1).psi.value()

    def dphi_at(self, point):
        return self.jets(point, 1).phi.d_value()

    def dpsi_at(self, point):
        return self.jets(point, 1).psi.d_value()

    def phi_field(self) -> FormField:
        """The structure 3-form as a FormField over the chart."""
        return self._field("phi", 3)

    def psi_field(self) -> FormField:
        return self._field("psi", 4)

    def _field(self, which, degree):
        """FormField view into the cached chart pipeline (jets up to order 2)."""

        def coeff(idx):
            def jf(pt, order):
                got = getattr(self.jets(pt, max(order, 1)), which).c.get(idx)
                if got is None:
                    return Jet.constant(0.0, N, order)
                return got.truncate(order)

            return ScalarField(N, jet_fn=jf)

        return FormField(N, degree, {idx: coeff(idx) for idx in combos(N, degree)})

    def adapted_derivatives(self, point):
        """(d phi, d psi) in the adapted coframe, where phi is standard."""
        p = np.linalg.inv(self.adapted_coframe(point))
        return self.dphi_at(point).transform(p), self.dpsi_at(point).transform(p)

    def torsion_gap(self, point) -> float:
        """Componentwise gap between the closed and numeric torsion forms."""
        return torsion_gap(self.torsion_closed(point), self.torsion_numeric(point))

    def _sample(self, count: int, rng, bound: float, accept) -> np.ndarray:
        """Seeded probes: fiber coordinates uniform in [-bound, bound]^3 and
        kept when ``accept`` holds, base in the model safe box."""
        pts = np.empty((count, N))
        got = 0
        while got < count:
            v = rng.uniform(-bound, bound, size=3)
            if not accept(v):
                continue
            pts[got, :3] = v
            pts[got, 3:] = self.model.sample_points(1, rng)[0]
            got += 1
        return pts
