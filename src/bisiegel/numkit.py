"""Tolerances and the 4x4 boundary record.

The library computes in factor coordinates, so it carries no matrix algebra.
``Mat4R`` is only the validated record of a motion's real 4x4 matrix, the type that ``classify``
reads and the CLI parses.  It unpacks the 4x4 shape once, converts the 16 entries into one tuple
display (``tuple(map())`` resizes its result, and its freed 16-tuples pile up on CPython's free
list, +0.3 MB of peak memory), gates them, and stores four slices through a slot setter bound
once, as the other records do.  ``_check_finite``, its finiteness gate, also guards a motion's
JSON rows.  ``classify`` checks the exchange pattern on the entries and the symplectic condition
as the two factor determinants; the literal matrix references live in ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalBreakdown

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "Mat4R",
]


@dataclass(frozen=True, slots=True)
class Tolerance:
    """Comparison thresholds.

    ``abs_eps`` bounds entrywise residuals in approximate equalities;
    ``dom_eps`` is the margin of the models' strict inequalities.
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

_Row4 = tuple[float, float, float, float]


@dataclass(frozen=True, init=False, slots=True)
class Mat4R:
    """4x4 real matrix stored as a tuple of four row tuples of finite floats."""

    rows: tuple[_Row4, _Row4, _Row4, _Row4]

    def __init__(self, rows) -> None:
        try:
            (a, b, c, d), (e, f, g, h), (p, q, r, s), (t, u, v, w) = rows
        except ValueError as exc:
            if "values to unpack" not in str(exc):
                raise
            raise ValueError("Mat4R needs exactly 4 rows of 4 entries") from None
        x = _check_finite((*map(float, (a, b, c, d, e, f, g, h, p, q, r, s, t, u, v, w)),))
        _set_rows(self, (x[0:4], x[4:8], x[8:12], x[12:16]))


#: The slot setter of ``rows``, bound once: frozen, so ``__init__`` bypasses ``__setattr__``.
_set_rows = Mat4R.rows.__set__


def _check_finite(entries: tuple) -> tuple:
    """The one finiteness gate of 4x4 entries: name the first non-finite one, or return them."""
    if not all(map(math.isfinite, entries)):
        x = next(x for x in entries if not math.isfinite(x))
        raise NumericalBreakdown(f"non-finite entry {x!r} in 4x4 matrix")
    return entries
