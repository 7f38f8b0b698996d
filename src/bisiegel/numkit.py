"""Tolerances and the fixed-shape matrix types: 2x2 complex and 4x4 real.

The library computes in factor coordinates.  ``Mat4R`` is the boundary type
of a motion's 4x4 matrix (JSON, ``classify``); ``Mat2C`` is the return type
of ``cross_ratio`` and the type of the literal matrix references in
``verify``.  Everything is immutable and pure.  Inverses of 2x2 matrices use
the closed adjugate formula guarded by a determinant threshold; there is
deliberately no general linear algebra here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalBreakdown, SingularMatrix

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "Mat2C",
    "Mat4R",
    "SYMPLECTIC_FORM",
    "EXCHANGE_4",
    "max_abs_diff",
]


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


@dataclass(frozen=True)
class Tolerance:
    """Comparison thresholds.

    ``abs_eps`` bounds entrywise residuals in approximate equalities;
    ``dom_eps`` is the margin for strict inequalities and the singularity
    guard for inverses.
    """

    abs_eps: float = 1e-10
    dom_eps: float = 1e-12

    def __post_init__(self) -> None:
        if not (0.0 < self.dom_eps <= self.abs_eps < 1.0):
            raise ValueError(
                f"need 0 < dom_eps <= abs_eps < 1, got abs_eps={self.abs_eps}, dom_eps={self.dom_eps}"
            )


DEFAULT_TOL = Tolerance()

#: Slack of the gates that take no caller tolerance: the public factor and
#: parameter constructors, and the values the library computes itself
#: (products, reductions, geodesic data).  It equals the default ``abs_eps``,
#: so no result moves, but a caller's ``Tolerance`` does not change it.
_FIXED_EPS = 1e-10


@dataclass(frozen=True)
class Mat2C:
    """2x2 complex matrix [[a, b], [c, d]]."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            v = complex(getattr(self, name))
            if not _finite(v):
                raise NumericalBreakdown(f"non-finite entry {name}={v!r} in 2x2 matrix")
            object.__setattr__(self, name, v)

    @classmethod
    def identity(cls) -> "Mat2C":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def bisym(cls, on_diag: complex, off_diag: complex) -> "Mat2C":
        """Matrix with equal diagonal and equal off-diagonal entries."""
        return cls(on_diag, off_diag, off_diag, on_diag)

    def __add__(self, other: "Mat2C") -> "Mat2C":
        return Mat2C(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Mat2C") -> "Mat2C":
        return Mat2C(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __matmul__(self, other: "Mat2C") -> "Mat2C":
        return Mat2C(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def scale(self, s: complex) -> "Mat2C":
        return Mat2C(s * self.a, s * self.b, s * self.c, s * self.d)

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def trace(self) -> complex:
        return self.a + self.d

    def conj(self) -> "Mat2C":
        return Mat2C(
            self.a.conjugate(), self.b.conjugate(), self.c.conjugate(), self.d.conjugate()
        )

    def max_abs(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def inverse(self, tol: Tolerance = DEFAULT_TOL) -> "Mat2C":
        """Closed-form adjugate inverse; rejects |det| at or below the guard."""
        det = self.det()
        if abs(det) <= tol.dom_eps:
            raise SingularMatrix(f"2x2 inverse with |det|={abs(det):.3e} <= {tol.dom_eps}")
        return Mat2C(self.d / det, -self.b / det, -self.c / det, self.a / det)


_Row4 = tuple[float, float, float, float]


@dataclass(frozen=True)
class Mat4R:
    """4x4 real matrix stored as a tuple of row tuples; products sum left to right."""

    rows: tuple[_Row4, _Row4, _Row4, _Row4]

    def __post_init__(self) -> None:
        rows = tuple(tuple(float(x) for x in row) for row in self.rows)
        if len(rows) != 4 or any(len(row) != 4 for row in rows):
            raise ValueError("Mat4R needs exactly 4 rows of 4 entries")
        for row in rows:
            for x in row:
                if not math.isfinite(x):
                    raise NumericalBreakdown(f"non-finite entry {x!r} in 4x4 matrix")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls) -> "Mat4R":
        return cls(tuple(tuple(1.0 if i == j else 0.0 for j in range(4)) for i in range(4)))

    def __sub__(self, other: "Mat4R") -> "Mat4R":
        return Mat4R(
            tuple(
                tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)
            )
        )

    def __matmul__(self, other: "Mat4R") -> "Mat4R":
        cols = tuple(zip(*other.rows))
        return Mat4R(
            tuple(
                tuple(a * e + b * f + c * g + d * h for e, f, g, h in cols)
                for a, b, c, d in self.rows
            )
        )

    def scale(self, s: float) -> "Mat4R":
        return Mat4R(tuple(tuple(s * x for x in row) for row in self.rows))

    def max_abs(self) -> float:
        return max(abs(x) for row in self.rows for x in row)

    def blocks(self) -> tuple[Mat2C, Mat2C, Mat2C, Mat2C]:
        """Split into 2x2 blocks (upper-left, upper-right, lower-left, lower-right)."""
        r = self.rows
        return (
            Mat2C(r[0][0], r[0][1], r[1][0], r[1][1]),
            Mat2C(r[0][2], r[0][3], r[1][2], r[1][3]),
            Mat2C(r[2][0], r[2][1], r[3][0], r[3][1]),
            Mat2C(r[2][2], r[2][3], r[3][2], r[3][3]),
        )


#: Standard symplectic form on R^4: [[0, I], [-I, 0]] in 2x2 blocks.
SYMPLECTIC_FORM = Mat4R(
    (
        (0.0, 0.0, 1.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
        (-1.0, 0.0, 0.0, 0.0),
        (0.0, -1.0, 0.0, 0.0),
    )
)

#: Exchange involution on R^4: swaps the two coordinates of each half;
#: squares to the identity.
EXCHANGE_4 = Mat4R(
    (
        (0.0, 1.0, 0.0, 0.0),
        (1.0, 0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
        (0.0, 0.0, 1.0, 0.0),
    )
)


def max_abs_diff(x, y) -> float:
    """Max entrywise modulus of x - y; works for Mat2C and Mat4R alike."""
    return (x - y).max_abs()
