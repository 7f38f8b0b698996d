"""The gates' two thresholds and the 4x4 boundary record.

The library computes in factor coordinates, so it carries no matrix algebra.
``Mat4R`` is only the validated record of a motion's real 4x4 matrix, the type that ``classify``
reads and the CLI parses.  It unpacks the 4x4 shape once, converts the 16 entries in one tuple
display of ``float()`` calls, built once with no list or map in between (``tuple(map())`` resizes
its result, +0.3 MB of peak memory), gates them, and stores four slices through a slot setter
bound once, as the other records do.  ``_check_finite``, its finiteness gate, also guards a
motion's JSON rows.  ``classify`` checks the exchange pattern on the entries and the symplectic
condition as the two factor determinants; the literal matrix references live in ``verify``.
``_ABS_EPS`` and ``_DOM_EPS`` stand in for the paper's exact conditions, each defined once here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalBreakdown

__all__ = [
    "Mat4R",
]


#: The two thresholds of every gate: ``_ABS_EPS`` bounds entrywise residuals and the
#: determinant gate's floor, ``_DOM_EPS`` is the margin of the models' strict inequalities.
_ABS_EPS, _DOM_EPS = 1e-10, 1e-12

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
        try:
            x = _check_finite((float(a), float(b), float(c), float(d), float(e), float(f), float(g), float(h),
                               float(p), float(q), float(r), float(s), float(t), float(u), float(v), float(w)))
        except OverflowError:
            entries = (a, b, c, d, e, f, g, h, p, q, r, s, t, u, v, w)
            raise _past_float_range(NumericalBreakdown, **{
                f"4x4 entry ({k // 4}, {k % 4})": y for k, y in enumerate(entries)}) from None
        _set_rows(self, (x[0:4], x[4:8], x[8:12], x[12:16]))


#: The slot setter of ``rows``, bound once: frozen, so ``__init__`` bypasses ``__setattr__``.
_set_rows = Mat4R.rows.__set__


def _check_finite(entries: tuple) -> tuple:
    """The one finiteness gate of 4x4 entries: name the first non-finite one, or return them."""
    if not all(map(math.isfinite, entries)):
        x = next(x for x in entries if not math.isfinite(x))
        raise NumericalBreakdown(f"non-finite entry {x!r} in 4x4 matrix")
    return entries


def _past_float_range(error: type, **args) -> Exception:
    """The ``error`` for arguments whose conversion to a float overflowed: it names the first
    that ``complex()`` cannot hold, an int past the float range, but not its digits, since
    ``repr`` of an int past 4300 digits raises."""
    for name, value in args.items():
        try:
            complex(value)
        except OverflowError:
            break
    return error(f"{name} is past the float range")
