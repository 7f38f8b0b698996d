"""The motion group of the bi-symmetric half-space.

In the factor coordinates ``(tau + z, tau - z)`` the space is a product of
two upper half-planes, and a motion is a pair of real Moebius maps
``(m1, m2)`` together with an exchange sign ``eps``: for ``eps = +1`` the
factors act on the two coordinates in order, for ``eps = -1`` the two images
are swapped.  Composition, inverse, the action, stabilizers and pair
reduction are all 2x2 work on the stored factors.

The real symplectic 4x4 matrix of a motion appears only at the boundary.
``classify`` validates a raw 4x4 in closed form, as scalar identities in its 16
entries (symplectic; commuting or anticommuting with the exchange involution),
and reads the factors off the top rows of its blocks, which have the pattern
``[[x1, x2], [eps*x2, eps*x1]]`` with ``x1 +- x2`` the entries of ``m1`` and
``m2``; ``MotionMatrix._rows`` writes the 4x4 back for JSON output, and ``.m``
is its ``Mat4R``, for the literal action ``(AZ + B)(CZ + D)^-1`` of ``verify``.

The bounded model is a product of two unit discs, and a disc motion is a
pair of SU(1,1) maps ``u -> (a u + b)/(conj(b) u + conj(a))`` with
``|a|^2 - |b|^2 = 1`` and the same exchange sign.  Its complex blocks
``A0``, ``B0`` of ``[[A0, B0], [conj B0, conj A0]]`` are built from the
factor entries, in the same pattern, only for JSON output.

Motions are validated once, at the boundary: ``classify`` (with the caller's
``Tolerance``) and the public constructors.  Values computed from validated
ones, and the seeded samples, are built by ``_sl2`` and ``_motion`` and trusted;
only products and transvections re-run the determinant gate, with a fixed bound.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from math import cos, exp, hypot, isfinite, pi, sin, sqrt
from operator import add, sub

from .domain import HPoint, _hpoint, _image
from .errors import (
    NotInHatGroup,
    NotSymplectic,
    NotUnimodular,
    NumericalBreakdown,
    SingularMatrix,
    UnitModulusViolation,
    ValidationError,
)
from .geometry import _chords
from .numkit import _FIXED_EPS, DEFAULT_TOL, Mat4R, Tolerance, _check_finite

__all__ = [
    "Sl2Matrix",
    "MotionMatrix",
    "DiscMotion",
    "StabilizerParams",
    "ReducedPair",
    "classify",
    "apply",
    "split",
    "assemble",
    "stabilizer_of_center",
    "stabilizer_of_iI",
    "reduce_pair",
    "random_sl2",
    "random_motion",
]


#: Determinant rounding allowed per unit of |ad| + |bc| (8 ulps; transvections
#: and rescaled products measure up to 3), and its cap, hit at entries near 1e6.
_DET_ULPS, _DET_CAP = 8.0 * 2.0**-53, 2.0**-10


def _check_det(ad: float, bc: float, floor: float = _FIXED_EPS) -> None:
    """The one determinant gate: reject a factor whose ad - bc is not 1 to its rounding.

    The bound grows with the rounding of |ad| + |bc| above the floor but stays far
    below 1 (the cap), so det 0 or det < 0 never passes; a NaN scale takes the floor.
    """
    bound = _DET_ULPS * (abs(ad) + abs(bc))
    if not bound > floor:
        bound = floor
    if bound > _DET_CAP:
        bound = _DET_CAP
    if not abs(ad - bc - 1.0) <= bound:  # `not <=` rejects NaN
        raise NotUnimodular(f"det={ad - bc!r} differs from 1 by more than {bound:.3e}")


def _sign(eps) -> int:
    """The one exchange-sign gate: exactly the int +1 or -1 (no bool, no float)."""
    if type(eps) is not int or eps not in (1, -1):
        raise ValidationError(f"eps must be +1 or -1, got {eps!r}")
    return eps


@dataclass(frozen=True)
class Sl2Matrix:
    """Real 2x2 matrix of determinant one (a Moebius factor)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        a, b, c, d = float(self.a), float(self.b), float(self.c), float(self.d)
        vars(self).update(a=a, b=b, c=c, d=d)  # frozen: bypass __setattr__
        _check_det(a * d, b * c)

    def __matmul__(self, other: "Sl2Matrix") -> "Sl2Matrix":
        return _product(self.a, self.b, self.c, self.d, other)

    def inverse(self) -> "Sl2Matrix":
        return _sl2(self.d, -self.b, -self.c, self.a)

    def to_json_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}


@dataclass(frozen=True)
class MotionMatrix:
    """A motion: two Moebius factors and the exchange sign.

    On factor coordinates ``(w1, w2)`` it acts as ``(m1 w1, m2 w2)`` for
    ``eps = +1`` and as ``(m2 w2, m1 w1)`` for ``eps = -1``.
    """

    m1: Sl2Matrix
    m2: Sl2Matrix
    eps: int

    def __post_init__(self) -> None:
        _sign(self.eps)

    @property
    def m(self) -> Mat4R:
        """The real symplectic 4x4 matrix as a ``Mat4R``: the verify reference."""
        return Mat4R(self._rows())

    def _rows(self) -> tuple:
        """The rows of the 4x4 matrix, behind the finiteness gate.  Each block is
        ``[[x1, x2], [eps*x2, eps*x1]]``, ``x1 +- x2`` the entries of ``m1``, ``m2``."""
        e, m1, m2 = self.eps, self.m1, self.m2
        a1, a2 = (m1.a + m2.a) / 2.0, (m1.a - m2.a) / 2.0
        b1, b2 = (m1.b + m2.b) / 2.0, (m1.b - m2.b) / 2.0
        c1, c2 = (m1.c + m2.c) / 2.0, (m1.c - m2.c) / 2.0
        d1, d2 = (m1.d + m2.d) / 2.0, (m1.d - m2.d) / 2.0
        # Rows 1 and 3 are eps times rows 0 and 2, which hold the first non-finite entry.
        _check_finite((a1, a2, b1, b2, c1, c2, d1, d2))
        return (
            (a1, a2, b1, b2),
            (e * a2, e * a1, e * b2, e * b1),
            (c1, c2, d1, d2),
            (e * c2, e * c1, e * d2, e * d1),
        )

    def __matmul__(self, other: "MotionMatrix") -> "MotionMatrix":
        # Under an exchanging right factor, each left factor meets the other one.
        p1, p2 = (self.m1, self.m2) if other.eps == 1 else (self.m2, self.m1)
        return _motion(p1 @ other.m1, p2 @ other.m2, self.eps * other.eps)

    def inverse(self) -> "MotionMatrix":
        i1, i2 = self.m1.inverse(), self.m2.inverse()
        return _motion(i1, i2, 1) if self.eps == 1 else _motion(i2, i1, -1)

    def to_json_dict(self) -> dict:
        return {"m": self._rows(), "eps": self.eps}


def _sl2(a: float, b: float, c: float, d: float) -> Sl2Matrix:
    """Trusted factor: float entries computed from validated values, stored unchecked."""
    m = object.__new__(Sl2Matrix)
    vars(m).update(a=a, b=b, c=c, d=d)
    return m


def _gated(a: float, b: float, c: float, d: float, floor: float = _FIXED_EPS) -> Sl2Matrix:
    """A factor computed in floats, stored after the determinant gate."""
    _check_det(a * d, b * c, floor)
    return _sl2(a, b, c, d)


def _product(p: float, q: float, r: float, s: float, other: Sl2Matrix) -> Sl2Matrix:
    """``[[p, q], [r, s]] @ other``, rescaled to det 1 and gated: the one factor product."""
    a = p * other.a + q * other.c
    b = p * other.b + q * other.d
    c = r * other.a + s * other.c
    d = r * other.b + s * other.d
    # Rounding is relative to the operands' entries, which may far exceed
    # the product's: rescale to det 1 (the Moebius map does not change).
    det = a * d - b * c
    k = 1.0 / sqrt(det) if det > 0.0 else 1.0
    return _gated(a * k, b * k, c * k, d * k)


def _motion(m1: Sl2Matrix, m2: Sl2Matrix, eps: int) -> MotionMatrix:
    """Trusted motion: validated factors and an int sign of +1 or -1, stored unchecked."""
    motion = object.__new__(MotionMatrix)
    vars(motion).update(m1=m1, m2=m2, eps=eps)
    return motion


def classify(m: Mat4R, tol: Tolerance = DEFAULT_TOL) -> MotionMatrix:
    """Validate a raw 4x4 in closed form as a motion and read off its factors.

    For rows ``a, b, c, d`` of ``M``, entry (i, j) of ``M^T J M - J`` is the scalar
    identity ``-(ci aj) - di bj + ai cj + bi dj - Jij``, written out and summed left to
    right as the tests' literal 4x4 products sum, so the residuals match theirs bit for
    bit (``J = [[0, I], [-I, 0]]``; subtracting its zeros is exact and left out).
    ``MQ``, ``QM`` swap columns, rows, within pairs.  ``eps`` has the smaller
    commutation residual (+1 on an exact tie, met only near the kernel).
    """
    a, b, c, d = m.rows
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = a, b, c, d
    sym = (
        abs(-(c0 * a0) - d0 * b0 + a0 * c0 + b0 * d0),
        abs(-(c0 * a1) - d0 * b1 + a0 * c1 + b0 * d1),
        abs(-(c0 * a2) - d0 * b2 + a0 * c2 + b0 * d2 - 1.0),
        abs(-(c0 * a3) - d0 * b3 + a0 * c3 + b0 * d3),
        abs(-(c1 * a0) - d1 * b0 + a1 * c0 + b1 * d0),
        abs(-(c1 * a1) - d1 * b1 + a1 * c1 + b1 * d1),
        abs(-(c1 * a2) - d1 * b2 + a1 * c2 + b1 * d2),
        abs(-(c1 * a3) - d1 * b3 + a1 * c3 + b1 * d3 - 1.0),
        abs(-(c2 * a0) - d2 * b0 + a2 * c0 + b2 * d0 + 1.0),
        abs(-(c2 * a1) - d2 * b1 + a2 * c1 + b2 * d1),
        abs(-(c2 * a2) - d2 * b2 + a2 * c2 + b2 * d2),
        abs(-(c2 * a3) - d2 * b3 + a2 * c3 + b2 * d3),
        abs(-(c3 * a0) - d3 * b0 + a3 * c0 + b3 * d0),
        abs(-(c3 * a1) - d3 * b1 + a3 * c1 + b3 * d1 + 1.0),
        abs(-(c3 * a2) - d3 * b2 + a3 * c2 + b3 * d2),
        abs(-(c3 * a3) - d3 * b3 + a3 * c3 + b3 * d3),
    )
    if not all(map(isfinite, sym)):
        raise NumericalBreakdown("non-finite symplectic residual: the 4x4 products overflow")
    if not (sym_res := max(sym)) <= tol.abs_eps:
        raise NotSymplectic(f"symplectic residual {sym_res:.3e} exceeds {tol.abs_eps}")
    # Entry k ^ 1 of row i against entry k of row i ^ 1, in row order.
    xs = (a1, a0, a3, a2, b1, b0, b3, b2, c1, c0, c3, c2, d1, d0, d3, d2)
    ys = b + a + d + c
    commute, anticommute = max(map(abs, map(sub, xs, ys))), max(map(abs, map(add, xs, ys)))
    if not isfinite(max(commute, anticommute)):
        raise NumericalBreakdown("non-finite commutation residual: the 4x4 entries overflow")
    eps = 1 if commute <= anticommute else -1
    if not min(commute, anticommute) <= tol.abs_eps:
        raise NotInHatGroup(
            f"commutation residuals ({commute:.3e}, {anticommute:.3e}) both exceed {tol.abs_eps}"
        )
    # Rows a and c hold the top rows of the blocks A, B and C, D.
    try:
        m1 = _gated(a0 + a1, a2 + a3, c0 + c1, c2 + c3, tol.abs_eps)
        m2 = _gated(a0 - a1, a2 - a3, c0 - c1, c2 - c3, tol.abs_eps)
    except NotUnimodular as exc:  # in this pattern: unimodular factors <=> symplectic
        raise NotSymplectic(f"factor of the patterned matrix: {exc}") from exc
    return _motion(m1, m2, eps)


def apply(motion: MotionMatrix, point: HPoint, tol: Tolerance = DEFAULT_TOL) -> HPoint:
    """Act on a half-space point: one Moebius map per factor coordinate.

    The product of the two denominators is det(CZ + D) of the 4x4 action up
    to sign, and is guarded the same way.  An image inside the ``dom_eps``
    margin is a numerical limit (``NumericalBreakdown``).
    """
    g1, g2 = _mobius_pair(motion.m1, motion.m2, point.w1, point.w2, tol)
    return _image(_hpoint, g1, g2, tol) if motion.eps == 1 else _image(_hpoint, g2, g1, tol)


def _mobius_pair(m1: Sl2Matrix, m2: Sl2Matrix, w1: complex, w2: complex, tol: Tolerance) -> tuple:
    """The factor images ``m1 w1``, ``m2 w2`` behind the guard on det(CZ + D)."""
    den1 = m1.c * w1 + m1.d
    den2 = m2.c * w2 + m2.d
    if abs(den1 * den2) <= tol.dom_eps:
        raise SingularMatrix(f"action denominator |det|={abs(den1 * den2):.3e}")
    return (m1.a * w1 + m1.b) / den1, (m2.a * w2 + m2.b) / den2


def split(motion: MotionMatrix) -> tuple[Sl2Matrix, Sl2Matrix]:
    """The two unimodular factors of a motion.

    They act on the half-plane coordinates (tau + z, tau - z), in that order
    for eps = +1 and with the images swapped for eps = -1.
    """
    return motion.m1, motion.m2


def assemble(m1: Sl2Matrix, m2: Sl2Matrix, eps: int) -> MotionMatrix:
    """Glue two unimodular factors (and a sign) into a motion."""
    return MotionMatrix(m1, m2, eps)


def _check_unit(name: str, xi: complex) -> None:
    """|xi|^2 = 1 under the factor gate: it is the stabilizer factors' determinant."""
    try:
        _check_det(abs(xi) ** 2, 0.0)
    except NotUnimodular:
        raise UnitModulusViolation(f"|{name}|={abs(xi)!r} is not 1") from None


@dataclass(frozen=True)
class StabilizerParams:
    """Two unit-circle rotation parameters and an exchange sign."""

    xi1: complex
    xi2: complex
    eps: int = 1

    def __post_init__(self) -> None:
        xi1, xi2 = complex(self.xi1), complex(self.xi2)
        _check_unit("xi1", xi1)
        _check_unit("xi2", xi2)
        _sign(self.eps)
        object.__setattr__(self, "xi1", xi1)
        object.__setattr__(self, "xi2", xi2)


@dataclass(frozen=True)
class DiscMotion:
    """A disc-model motion: two SU(1,1) factor maps and the exchange sign.

    Factor k is ``u -> (ak u + bk)/(conj(bk) u + conj(ak))`` with
    ``|ak|^2 - |bk|^2 = 1``; the sign swaps the images as in ``MotionMatrix``.
    It is the record that ``stabilizer --model disc`` writes as JSON; the
    library does not act with it.
    """

    a1: complex
    b1: complex
    a2: complex
    b2: complex
    eps: int

    def __post_init__(self) -> None:
        _sign(self.eps)
        a1, b1, a2, b2 = complex(self.a1), complex(self.b1), complex(self.a2), complex(self.b2)
        vars(self).update(a1=a1, b1=b1, a2=a2, b2=b2)  # frozen: bypass __setattr__
        for a, b in ((a1, b1), (a2, b2)):
            _check_det(abs(a) ** 2, abs(b) ** 2)

    def _block(self, x1: complex, x2: complex) -> tuple:
        h1, h2 = (x1 + x2) / 2.0, (x1 - x2) / 2.0
        return ((h1, h2), (self.eps * h2, self.eps * h1))

    # The complex blocks of [[A0, B0], [conj B0, conj A0]], for JSON output:
    # each reads [[x1, x2], [eps*x2, eps*x1]] with x1 +- x2 the factor entries.
    a0 = property(lambda self: self._block(self.a1, self.a2))
    b0 = property(lambda self: self._block(self.b1, self.b2))

    def to_json_dict(self) -> dict:
        def entries(block: tuple) -> list:
            return [[[x.real, x.imag] for x in row] for row in block]

        return {"a0": entries(self.a0), "b0": entries(self.b0), "eps": self.eps}


def stabilizer_of_center(params: StabilizerParams) -> DiscMotion:
    """Disc-model motion fixing the center of the bounded model.

    Its factors are ``u -> xi u / conj(xi)``, so it rotates the two discs by
    xi1^2 and xi2^2 (swapped when eps = -1); the parameters are two-to-one
    onto the rotations.
    """
    return DiscMotion(params.xi1, 0j, params.xi2, 0j, params.eps)


def stabilizer_of_iI(params: StabilizerParams) -> MotionMatrix:
    """Real motion fixing the base point iI: a rotation about i per factor.

    The factors are ``[[Re xi, Im xi], [-Im xi, Re xi]]`` for xi1 and xi2;
    conjugated by the Cayley map they are the disc rotations of
    ``stabilizer_of_center`` with the same parameters.
    """
    return _motion(_rotation(params.xi1), _rotation(params.xi2), params.eps)


def _rotation(xi: complex) -> Sl2Matrix:
    """The rotation about i with parameter xi; ``_check_unit`` gates its determinant."""
    return _sl2(xi.real, xi.imag, -xi.imag, xi.real)


def _transvection_to_i(w: complex) -> Sl2Matrix:
    """The symmetric positive factor sending w = x + iy to i.

    It is the square root of A = [[1/y, -x/y], [-x/y, (x^2 + y^2)/y]], whose
    determinant is one, so the root is (A + I) / sqrt(tr A + 2).  Its entry
    products grow like x^2 / y, so the determinant gate runs on it.
    """
    x, y = w.real, w.imag
    a11, a12, a22 = 1.0 / y, -x / y, (x * x + y * y) / y
    s = sqrt(a11 + a22 + 2.0)
    if not isfinite(s):  # no entry of A exceeds tr A: all entries are finite with s
        raise NumericalBreakdown(f"transvection of {w!r} to i overflows")
    return _gated((a11 + 1.0) / s, a12 / s, a12 / s, (a22 + 1.0) / s)


@dataclass(frozen=True)
class ReducedPair:
    """Canonical form of an ordered point pair: the motion taking the first
    point to iI and the second to i*[[lambda1, lambda2], [lambda2, lambda1]]."""

    mover: MotionMatrix
    lambda1: float
    lambda2: float

    def __post_init__(self) -> None:
        l1, l2 = float(self.lambda1), float(self.lambda2)
        if l2 < -_FIXED_EPS or l1 < l2 + 1.0 - _FIXED_EPS:
            raise ValidationError(f"invalid canonical pair (lambda1={l1!r}, lambda2={l2!r})")
        object.__setattr__(self, "lambda1", l1)
        object.__setattr__(self, "lambda2", l2)


def _half_conj_phase(w: complex) -> complex:
    """e^{-i arg(w) / 2}, defined as 1 at the origin.

    The disc stabilizer with parameters (xi1, xi2) rotates the two disc
    factors by the squares xi1^2, xi2^2 (numerator and denominator of its
    action each contribute one unit-modulus factor), so aligning a factor
    onto the positive real axis needs half its phase.
    """
    if abs(w) == 0.0:
        return complex(1.0, 0.0)
    return cmath.exp(-0.5j * cmath.phase(w))


def reduce_pair(z_base: HPoint, z_other: HPoint, tol: Tolerance = DEFAULT_TOL) -> ReducedPair:
    """Reduce an ordered pair of half-space points to canonical position.

    First transport ``z_base`` to iI, then rotate the two disc factors of
    the image of ``z_other`` onto the nonnegative real axis, with the larger
    radius in the first slot (ties keep the factor order; a swap is realized
    by an eps = -1 rotation).  The moved radii satisfy
    (1 + r)/(1 - r) = per-factor dilation, so the canonical entries

        lambda1 = (1 - r1 r2) / ((1 - r1)(1 - r2)) = (lam_big + lam_small)/2,
        lambda2 = (r1 - r2) / ((1 - r1)(1 - r2))   = (lam_big - lam_small)/2

    are computed from the dilations of the raw pair, which stay accurate
    where 1 - r has cancelled to the last few bits; they are independent of
    every internal choice.  The mover is ``stabilizer_of_iI(params) @ T``, with
    ``T`` the motion of the two factor transvections of ``z_base`` to ``i``,
    built per factor as one product ``R(xi) @ T`` from the entries of ``R(xi)``.  ``z_other`` is moved as its two factor images, under
    ``apply``'s guard and membership test; no motion is built and no point kept.
    """
    t1, t2 = _transvection_to_i(z_base.w1), _transvection_to_i(z_base.w2)
    h1, h2 = _mobius_pair(t1, t2, z_other.w1, z_other.w2, tol)
    _image(_hpoint, h1, h2, tol)  # apply's membership test; the point is not kept
    # Scalar per-factor Cayley transform for the aligning phases; deliberately
    # not routed through the bounded-model membership gate so near-boundary
    # radii surface as a numerical breakdown rather than a domain violation.
    xi1 = _half_conj_phase((h1 - 1j) / (h1 + 1j))
    xi2 = _half_conj_phase((h2 - 1j) / (h2 + 1j))
    s_plus, s_minus = _chords(z_base, z_other)
    swap = s_plus < s_minus
    s_big, s_small = (s_minus, s_plus) if swap else (s_plus, s_minus)
    # For the chord s = sinh(d/2): r = tanh(d/2) and the dilation is e^d.
    r_big = s_big / hypot(1.0, s_big)
    if not r_big < 1.0 - tol.dom_eps:
        raise NumericalBreakdown(f"factor radius {r_big!r} too close to the boundary")
    lam_big, lam_small = ((s + hypot(1.0, s)) ** 2 for s in (s_big, s_small))
    _check_unit("xi1", xi1)
    _check_unit("xi2", xi2)
    m1 = _product(xi1.real, xi1.imag, -xi1.imag, xi1.real, t1)  # _rotation(xi1) @ t1
    m2 = _product(xi2.real, xi2.imag, -xi2.imag, xi2.real, t2)
    mover = _motion(m1, m2, -1 if swap else 1)
    return ReducedPair(mover, (lam_big + lam_small) / 2.0, (lam_big - lam_small) / 2.0)


def random_sl2(rng: random.Random) -> Sl2Matrix:
    """Seeded unimodular sample: rotation times upper-triangular.

    Draw order: angle uniform in [0, 2pi), log-scale uniform in [-1, 1],
    shear uniform in [-2, 2].
    """
    theta = rng.uniform(0.0, 2.0 * pi)
    lam = exp(rng.uniform(-1.0, 1.0))
    mu = rng.uniform(-2.0, 2.0)
    ct, st = cos(theta), sin(theta)
    # [[ct, st], [-st, ct]] @ [[lam, mu], [0, 1/lam]]
    return _sl2(ct * lam, ct * mu + st / lam, -st * lam, -st * mu + ct / lam)


def random_motion(rng: random.Random) -> MotionMatrix:
    """Seeded motion sample: two factors then a fair exchange sign, stored trusted."""
    m1 = random_sl2(rng)
    m2 = random_sl2(rng)
    return _motion(m1, m2, 1 if rng.random() < 0.5 else -1)
