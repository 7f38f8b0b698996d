"""Numerics for the bi-symmetric Siegel upper half space of order two.

The library implements the half-space and bounded models of the space, the
motion group acting on them, reduction of point pairs to canonical form, the
invariant metric with closed-form distances and geodesics, the invariant
volume density, and a scalar upper half-plane oracle used to cross-check
every factor-decomposed result.
"""

from .domain import (
    EPoint,
    HPoint,
    cayley_to_disc,
    cayley_to_halfspace,
    e_contains,
    h_contains,
    random_hpoint,
)
from .errors import (
    DegeneratePair,
    DomainViolation,
    GeometryError,
    NotInHatGroup,
    NotSymplectic,
    NotUnimodular,
    NumericalBreakdown,
    NumericalError,
    OutOfRange,
    SingularMatrix,
    UnitModulusViolation,
    ValidationError,
)
from .geometry import (
    GeodesicSpec,
    Tangent,
    connect,
    cross_ratio_eigenvalues,
    distance,
    distance_params,
    geodesic,
    geodesic_ode_residual,
    metric_form,
    path_length,
    path_speed,
    simpson,
    volume_density,
)
from .group import (
    DiscMotion,
    MotionMatrix,
    ReducedPair,
    Sl2Matrix,
    StabilizerParams,
    apply,
    assemble,
    classify,
    random_motion,
    random_sl2,
    reduce_pair,
    split,
    stabilizer_of_center,
    stabilizer_of_iI,
    transport_to_center,
    transport_to_iI,
)
from .hyperbolic import (
    HalfPlanePoint,
    hyp_distance,
    mobius,
    pair_lambda,
)
from .numkit import (
    DEFAULT_TOL,
    Mat4R,
    SYMPLECTIC_FORM,
    Tolerance,
)
from .verify import CheckResult, run_suite

__version__ = "0.1.0"
