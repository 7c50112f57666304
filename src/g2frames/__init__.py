"""Numerical moving frames, exterior calculus, and torsion classification
of the natural structure 3-forms on the rank-3 bundles over oriented
Riemannian 4-manifolds."""

from .exterior import (
    JetForm,
    MatrixForm,
    Multivector,
    ScalarField,
    check,
    hat,
)
from .frames4 import (
    FrameBundle,
    SingerThorpe,
    curvature_oracle,
    pairing_sign,
    predicates,
)
from .g2point import (
    G2Structure,
    TorsionClass,
    TorsionForms,
    classify,
    classify_norms,
    metric_from_phi,
    standard_phi,
    torsion_decompose,
)
from .jets import Jet, variables
from .models import ModelSpec, expected_table, get_model
from .bundle7 import (
    PSpaceChart,
    Profile,
    XSpaceChart,
    bs_profile,
    constant_profile,
    radial_geometry,
)

__version__ = "0.1.0"

__all__ = [
    "JetForm",
    "MatrixForm",
    "Multivector",
    "ScalarField",
    "check",
    "hat",
    "FrameBundle",
    "SingerThorpe",
    "curvature_oracle",
    "pairing_sign",
    "predicates",
    "G2Structure",
    "TorsionClass",
    "TorsionForms",
    "classify",
    "classify_norms",
    "metric_from_phi",
    "standard_phi",
    "torsion_decompose",
    "Jet",
    "variables",
    "ModelSpec",
    "expected_table",
    "get_model",
    "PSpaceChart",
    "Profile",
    "XSpaceChart",
    "bs_profile",
    "constant_profile",
    "radial_geometry",
]
