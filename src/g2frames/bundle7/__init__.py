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
from .pspace import ChartBoundError, PSpaceChart, rotation_jets
from .radial import (
    GeodesicTrace,
    RadialGeometry,
    adaptive_simpson,
    geodesic_trace,
    radial_geometry,
    radius_length,
    radius_length_riemann,
)
from .xspace import DualityHypothesisError, XSpaceChart

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
    "DualityHypothesisError",
    "XSpaceChart",
]
