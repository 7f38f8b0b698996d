"""Numerics for the bi-symmetric Siegel upper half space of order two.

The library implements the half-space and bounded models of the space, the
motion group acting on them, reduction of point pairs to canonical form, the
invariant metric with closed-form distances and geodesics, the invariant
volume density, and a seeded self-verification suite (``verify``), which
checks them against literal matrix references and a half-plane oracle
(``hyperbolic``).  Other public names live in their modules.
"""

from .domain import (
    HPoint,
    random_hpoint,
)
from .errors import (
    GeometryError,
    NumericalError,
    ValidationError,
)
from .geometry import (
    connect,
    cross_ratio_eigenvalues,
    distance,
    geodesic,
)
from .group import (
    apply,
    classify,
    random_motion,
    reduce_pair,
    split,
)
from .numkit import (
    DEFAULT_TOL,
    Mat4R,
    Tolerance,
)

__version__ = "0.1.0"

__all__ = [
    "HPoint",
    "distance",
    "geodesic",
    "reduce_pair",
    "apply",
    "random_motion",
    "random_hpoint",
    "classify",
    "Mat4R",
    "split",
    "connect",
    "cross_ratio_eigenvalues",
    "Tolerance",
    "DEFAULT_TOL",
    "GeometryError",
    "ValidationError",
    "NumericalError",
    "__version__",
]
