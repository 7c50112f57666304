"""Catalog of explicit chart metrics with their expected invariant tables.

Six 4-dimensional models cover every curvature regime the torsion theorems
distinguish: flat space, round spheres, real hyperbolic space, the two
standard Kaehler models of constant holomorphic sectional curvature (one of
either scalar sign), and the scalar-flat, non-Einstein product of surfaces
of opposite curvature.  Complex-model charts are oriented so the Kaehler
form is self-dual, and all curvature scales are normalized to s in
{-1, 0, +1} (s = Scal/12), except the sphere/hyperbolic family where the
radius parameter gives s = +-1/kappa^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exterior import ScalarField
from .frames4 import FrameBundle

MODEL_NAMES = (
    "flat",
    "sphere4",
    "hyperbolic4",
    "fubiniStudy",
    "complexHyperbolic",
    "productS2H2",
)


class UnknownModelError(ValueError):
    pass


@dataclass(frozen=True)
class ExpectedFlags:
    einstein: bool
    sd: bool
    asd: bool
    scalar_flat: bool
    s_sign: int
    s_constant: bool
    s_value: float


@dataclass(frozen=True)
class ModelSpec:
    name: str
    metric: list
    safe_box: tuple  # per-coordinate (lo, hi)
    expected: ExpectedFlags
    params: dict = field(default_factory=dict)

    def bundle(self) -> FrameBundle:
        return FrameBundle(self.metric)

    def sample_points(self, count: int, rng) -> np.ndarray:
        lo = np.array([b[0] for b in self.safe_box])
        hi = np.array([b[1] for b in self.safe_box])
        return lo + (hi - lo) * rng.random((count, 4))


def _const(v: float) -> ScalarField:
    return ScalarField.constant(4, v)


def _diag_conformal(fn) -> list:
    f = ScalarField(4, fn=fn)
    z = _const(0.0)
    return [[f if i == j else z for j in range(4)] for i in range(4)]


def _flat_metric():
    return [[_const(1.0 if i == j else 0.0) for j in range(4)] for i in range(4)]


def _ball_metric(kappa: float, sign: float):
    """Conformally flat chart of the round sphere (sign +1) or of hyperbolic
    space (sign -1) of radius kappa."""
    k2 = kappa * kappa

    def f(x0, x1, x2, x3):
        c = 2.0 / (1.0 + sign * (x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3) / k2)
        return c * c

    return _diag_conformal(f)


def _kahler_metric(hyperbolic: bool):
    """Constant holomorphic curvature metric on a complex 2-space chart.

    Chart coordinates pair into z1 = x0 + i x1, z2 = x2 + i x3; the Kaehler
    form is then self-dual for the standard chart orientation.  The overall
    scale makes Scal = +-12 exactly.
    """
    sgn = -1.0 if hyperbolic else 1.0

    def make(entry):
        def f(x0, x1, x2, x3):
            p = x0 * x0 + x1 * x1
            q = x2 * x2 + x3 * x3
            u = 1.0 + sgn * (p + q)
            alpha = x0 * x2 + x1 * x3
            beta = x0 * x3 - x1 * x2
            uu = u * u
            if entry == "d1":
                return 2.0 * (1.0 + sgn * q) / uu
            if entry == "d2":
                return 2.0 * (1.0 + sgn * p) / uu
            if entry == "a":
                return sgn * -2.0 * alpha / uu
            if entry == "b":
                return sgn * -2.0 * beta / uu
            return -(sgn * -2.0 * beta / uu)  # entry == "-b"

        return ScalarField(4, fn=f)

    d1, d2 = make("d1"), make("d2")
    a, b, nb = make("a"), make("b"), make("-b")
    z = _const(0.0)
    # rows/cols in coordinate order (x0, x1, x2, x3)
    return [
        [d1, z, a, b],
        [z, d1, nb, a],
        [a, nb, d2, z],
        [b, a, z, d2],
    ]


def _product_metric():
    def f_sphere(x0, x1, x2, x3):
        c = 2.0 / (1.0 + x0 * x0 + x1 * x1)
        return c * c

    def f_hyper(x0, x1, x2, x3):
        c = 2.0 / (1.0 - x2 * x2 - x3 * x3)
        return c * c

    fs = ScalarField(4, fn=f_sphere)
    fh = ScalarField(4, fn=f_hyper)
    z = _const(0.0)
    return [
        [fs, z, z, z],
        [z, fs, z, z],
        [z, z, fh, z],
        [z, z, z, fh],
    ]


_BALL_BOX = tuple((-0.33, 0.33) for _ in range(4))
_FLAT_BOX = tuple((-1.0, 1.0) for _ in range(4))


def get_model(name: str, kappa: float = 1.0) -> ModelSpec:
    """Catalog lookup; ``kappa`` scales the sphere/hyperbolic radius."""
    if name not in MODEL_NAMES:
        raise UnknownModelError(f"unknown model {name!r}; choose from {MODEL_NAMES}")
    if kappa <= 0:
        raise ValueError("curvature scale kappa must be positive")
    if name == "flat":
        return ModelSpec(
            name,
            _flat_metric(),
            _FLAT_BOX,
            ExpectedFlags(True, True, True, True, 0, True, 0.0),
        )
    if name == "sphere4":
        return ModelSpec(
            name,
            _ball_metric(kappa, 1.0),
            _BALL_BOX,
            ExpectedFlags(True, True, True, False, 1, True, 1.0 / kappa**2),
            params={"kappa": kappa},
        )
    if name == "hyperbolic4":
        box = tuple((lo * kappa, hi * kappa) for lo, hi in _BALL_BOX)
        return ModelSpec(
            name,
            _ball_metric(kappa, -1.0),
            box,
            ExpectedFlags(True, True, True, False, -1, True, -1.0 / kappa**2),
            params={"kappa": kappa},
        )
    if name == "fubiniStudy":
        return ModelSpec(
            name,
            _kahler_metric(hyperbolic=False),
            _BALL_BOX,
            ExpectedFlags(True, True, False, False, 1, True, 1.0),
        )
    if name == "complexHyperbolic":
        return ModelSpec(
            name,
            _kahler_metric(hyperbolic=True),
            _BALL_BOX,
            ExpectedFlags(True, True, False, False, -1, True, -1.0),
        )
    return ModelSpec(
        name,
        _product_metric(),
        _BALL_BOX,
        ExpectedFlags(False, True, True, True, 0, True, 0.0),
    )


def expected_table() -> dict:
    """The six catalog rows at default parameters."""
    return {name: get_model(name).expected for name in MODEL_NAMES}
