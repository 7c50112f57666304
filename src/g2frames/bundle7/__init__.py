"""Charts, structure forms, and torsion evaluators on the rank-3 bundles."""

from .chart import Chart, torsion_gap
from .profiles import (
    Profile,
    ProfileDomainError,
    bs_profile,
    constant_profile,
    profile_from_const_and_tau2,
    profile_from_tau1_and_tau2,
    random_smooth_profile,
    two_of_three_report,
)
from .pspace import CanonicalFormsP, ChartBoundError, PSpaceChart, rotation_jets
from .radial import (
    GeodesicTrace,
    RadialGeometry,
    adaptive_simpson,
    geodesic_trace,
    radial_geometry,
    radius_length,
    radius_length_riemann,
)
from .xspace import CanonicalFormsX, DualityHypothesisError, FiberPointX, XSpaceChart

__all__ = [
    "Chart",
    "torsion_gap",
    "Profile",
    "ProfileDomainError",
    "bs_profile",
    "constant_profile",
    "profile_from_const_and_tau2",
    "profile_from_tau1_and_tau2",
    "random_smooth_profile",
    "two_of_three_report",
    "CanonicalFormsP",
    "ChartBoundError",
    "PSpaceChart",
    "rotation_jets",
    "GeodesicTrace",
    "RadialGeometry",
    "adaptive_simpson",
    "geodesic_trace",
    "radial_geometry",
    "radius_length",
    "radius_length_riemann",
    "CanonicalFormsX",
    "DualityHypothesisError",
    "FiberPointX",
    "XSpaceChart",
]
