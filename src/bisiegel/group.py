"""The motion group of the bi-symmetric half-space.

In the factor coordinates ``(tau + z, tau - z)`` the space is a product of
two upper half-planes, and a motion is a pair of real Moebius maps
``(m1, m2)`` together with an exchange sign ``eps``: for ``eps = +1`` the
factors act on the two coordinates in order, for ``eps = -1`` the two images
are swapped.  A motion stores each factor as its entries ``(a, b, c, d)``; composition,
the action, stabilizers and pair reduction are 2x2 work on them, and the factor record
``Sl2Matrix`` is built only at the boundary (``assemble`` reads two, ``split`` builds two,
``random_sl2``, JSON).  ``_images`` is the one factor map: ``apply`` and ``verify``'s geodesic
checks both call it.

The real symplectic 4x4 matrix of a motion appears only at the boundary.
``classify`` checks each condition once: that a raw 4x4 commutes or anticommutes
with the exchange involution, so its blocks have the pattern
``[[x1, x2], [eps*x2, eps*x1]]`` with ``x1 +- x2`` the entries of ``m1`` and ``m2``;
then that these two factors are unimodular, which in this pattern is the symplectic
condition.  ``MotionMatrix._halves`` gives the 8 ``x1``, ``x2`` that the CLI prints,
``_rows`` the 4x4, which ``verify``'s literal action reads, and ``.m`` its ``Mat4R``.

The stabilizer of the base point is given by two unit parameters ``xi1``, ``xi2``
and a sign: ``stabilizer_of_iI`` gates each parameter as its rotation factor's
determinant and builds the motion, and its Cayley conjugate, the disc rotations
``u -> xi u / conj(xi)``, is written only as JSON, by the CLI, from that motion.

Motions are validated once, at the boundary: ``classify``, ``assemble`` and ``stabilizer_of_iI``,
the checked builders.  Every gate reads the one threshold ``_ABS_EPS``.  Values computed from
validated ones, and the seeded samples, are trusted: ``_sl2`` and ``_motion`` (on entry
tuples) fill the slots through setters bound once; only products re-run the determinant gate
(a ``NumericalBreakdown``: their inputs were valid).  Each operation gates the values it
returns, not a quantity derived from them: ``_transport_to_i`` refuses only where its entry
``-x/r`` overflows.  ``_product``, the one factor product, takes and returns entry tuples; composition
calls it once per factor, and ``reduce_pair`` once per factor on the entries of a rotation and
of a triangular transport of the first point (determinant one by construction).
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from math import cos, exp, hypot, inf, isfinite, pi, sin, sqrt

from .domain import HPoint, _hpoint, _image_breakdown, _new
from .errors import (
    DomainViolation,
    NotInHatGroup,
    NotSymplectic,
    NotUnimodular,
    NumericalBreakdown,
    UnitModulusViolation,
    ValidationError,
)
from .geometry import _chord
from .numkit import _ABS_EPS, Mat4R, _check_finite, _past_float_range

__all__ = [
    "Sl2Matrix",
    "MotionMatrix",
    "ReducedPair",
    "classify",
    "apply",
    "split",
    "assemble",
    "stabilizer_of_iI",
    "reduce_pair",
    "random_sl2",
    "random_motion",
]


#: Determinant rounding allowed per unit of |ad| + |bc| (8 ulps; rescaled
#: products measure up to 3), and its cap, hit at entries near 1e6.
_DET_ULPS, _DET_CAP = 8.0 * 2.0**-53, 2.0**-10


def _check_det(ad: float, bc: float) -> None:
    """The one determinant gate: reject a factor whose ad - bc is not 1 to its rounding.

    The bound grows with the rounding of |ad| + |bc| above the floor ``_ABS_EPS`` but stays
    far below 1 (the cap), so det 0 or det < 0 never passes; a NaN scale takes the floor.
    """
    bound = _DET_ULPS * (abs(ad) + abs(bc))
    if not bound > _ABS_EPS:
        bound = _ABS_EPS
    if bound > _DET_CAP:
        bound = _DET_CAP
    if not abs(ad - bc - 1.0) <= bound:  # `not <=` rejects NaN
        raise NotUnimodular(f"det={ad - bc!r} differs from 1 by more than {bound:.3e}")


def _sign(eps) -> int:
    """The one exchange-sign gate: exactly the int +1 or -1 (no bool, no float)."""
    if type(eps) is not int or eps not in (1, -1):
        raise ValidationError(f"eps must be +1 or -1, got {eps!r}")
    return eps


@dataclass(frozen=True, slots=True)
class Sl2Matrix:
    """Real 2x2 matrix of determinant one (a Moebius factor)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        try:
            for name in "abcd":  # frozen: bypass __setattr__
                object.__setattr__(self, name, float(getattr(self, name)))
        except OverflowError:
            raise NotUnimodular(f"entry {name} is past the float range") from None
        _check_det(self.a * self.d, self.b * self.c)

    def to_json_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}


@dataclass(frozen=True, slots=True, init=False)
class MotionMatrix:
    """A motion: two Moebius factors and the exchange sign.

    On factor coordinates ``(w1, w2)`` it acts as ``(m1 w1, m2 w2)`` for
    ``eps = +1`` and as ``(m2 w2, m1 w1)`` for ``eps = -1``.  It stores each factor's
    entries and has no constructor (calling the class is a ``TypeError``): ``assemble`` and
    ``classify`` build it checked, ``_motion`` trusted, and ``split`` reads its two ``Sl2Matrix``.
    """

    _e1: tuple
    _e2: tuple
    eps: int

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("MotionMatrix has no constructor: assemble(m1, m2, eps) or classify(m) builds one")

    @property
    def m(self) -> Mat4R:
        """The real symplectic 4x4 matrix as a ``Mat4R``, as ``classify`` reads it."""
        return Mat4R(self._rows())

    def _halves(self) -> tuple:
        """The 8 distinct 4x4 entries ``(a1, a2, b1, b2, c1, c2, d1, d2)``, rows 0 and 2,
        behind the finiteness gate, none ``-0.0`` (``+ 0.0``); ``x1 +- x2`` are ``m1``, ``m2``.
        The CLI's motion writer prints these as they are, so this is what prints a zero as 0."""
        (p1, q1, r1, s1), (p2, q2, r2, s2) = self._e1, self._e2
        a1, a2 = (p1 + p2) / 2.0 + 0.0, (p1 - p2) / 2.0 + 0.0
        b1, b2 = (q1 + q2) / 2.0 + 0.0, (q1 - q2) / 2.0 + 0.0
        c1, c2 = (r1 + r2) / 2.0 + 0.0, (r1 - r2) / 2.0 + 0.0
        d1, d2 = (s1 + s2) / 2.0 + 0.0, (s1 - s2) / 2.0 + 0.0
        return _check_finite((a1, a2, b1, b2, c1, c2, d1, d2))

    def _rows(self) -> tuple:
        """The 4x4 rows: each block is ``[[x1, x2], [eps*x2, eps*x1]]`` (``_halves``)."""
        e = self.eps
        a1, a2, b1, b2, c1, c2, d1, d2 = self._halves()
        return (
            (a1, a2, b1, b2),
            (e * a2, e * a1, e * b2, e * b1),
            (c1, c2, d1, d2),
            (e * c2, e * c1, e * d2, e * d1),
        )

    def __matmul__(self, other: "MotionMatrix") -> "MotionMatrix":
        # Under an exchanging right factor, each left factor meets the other one.
        p1, p2 = (self._e1, self._e2) if other.eps == 1 else (self._e2, self._e1)
        return _motion(_product(p1, other._e1), _product(p2, other._e2), self.eps * other.eps)

    def to_json_dict(self) -> dict:
        return {"m": self._rows(), "eps": self.eps}


@dataclass(frozen=True, slots=True)
class ReducedPair:
    """Canonical form of an ordered point pair: the motion taking the first
    point to iI and the second to i*[[lambda1, lambda2], [lambda2, lambda1]]."""

    mover: MotionMatrix
    lambda1: float
    lambda2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambda1", float(self.lambda1))  # frozen: bypass __setattr__
        object.__setattr__(self, "lambda2", float(self.lambda2))
        _check_lambdas(self.lambda1, self.lambda2)


def _check_lambdas(l1: float, l2: float) -> None:
    """The one gate of a canonical pair: lambda2 >= 0, lambda1 - lambda2 >= 1, lambda1 finite."""
    slack = _ABS_EPS + l1 * 2.0**-51  # lambda1 - lambda2 >= 1 to an ulp of lambda1
    if not (-_ABS_EPS <= l2 and 1.0 - slack <= l1 - l2 and l1 < inf):  # `not` rejects NaN
        raise ValidationError(f"invalid canonical pair (lambda1={l1!r}, lambda2={l2!r})")


#: Slot setters, bound once for ``_sl2``, ``_motion`` and ``reduce_pair``.
_set_a, _set_b, _set_c, _set_d = (getattr(Sl2Matrix, f).__set__ for f in "abcd")
_set_e1, _set_e2, _set_eps = (getattr(MotionMatrix, f).__set__ for f in ("_e1", "_e2", "eps"))
_set_mover, _set_lambda1, _set_lambda2 = (
    getattr(ReducedPair, f).__set__ for f in ("mover", "lambda1", "lambda2"))


def _sl2(a: float, b: float, c: float, d: float) -> Sl2Matrix:
    """Trusted factor: float entries computed from validated values, stored unchecked."""
    m = _new(Sl2Matrix)
    _set_a(m, a)
    _set_b(m, b)
    _set_c(m, c)
    _set_d(m, d)
    return m


def _product(m: tuple, n: tuple) -> tuple:
    """The entries of ``m @ n`` for entry tuples ``m``, ``n``, rescaled to det 1 and gated: the one
    factor product.  Its gate is the interior one: a failure is a numerical breakdown, not bad input."""
    (p, q, r, s), (e, f, g, h) = m, n
    a = p * e + q * g
    b = p * f + q * h
    c = r * e + s * g
    d = r * f + s * h
    # Rounding is relative to the operands' entries, which may far exceed
    # the product's: rescale to det 1 (the Moebius map does not change).
    det = a * d - b * c
    k = 1.0 / sqrt(det) if det > 0.0 else 1.0
    a, b, c, d = a * k, b * k, c * k, d * k
    try:
        _check_det(a * d, b * c)
    except NotUnimodular as exc:
        raise NumericalBreakdown(f"computed factor lost its determinant: {exc}") from None
    return a, b, c, d


def _motion(e1: tuple, e2: tuple, eps: int) -> MotionMatrix:
    """Trusted motion: the entry tuples of validated factors and an int sign of +-1, stored unchecked."""
    motion = _new(MotionMatrix)
    _set_e1(motion, e1)
    _set_e2(motion, e2)
    _set_eps(motion, eps)
    return motion


def classify(m: Mat4R) -> MotionMatrix:
    """Validate a raw 4x4 as a motion and read off its factors, each condition once.

    ``M`` (rows ``a, b, c, d``) is accepted when rows b and d are rows a and c with each
    pair of entries swapped, times one sign ``eps`` (``MQ = eps QM`` for the exchange
    involution ``Q``), to ``_ABS_EPS``, and both factors read off rows a and c pass
    ``_check_det``.  The motion's 4x4 equals ``M`` in rows a and c, and is within
    ``_ABS_EPS`` of it in rows b and d.  ``eps`` has the smaller commutation residual
    (+1 on an exact tie, met only near the kernel).  That gate is absolute: a 4x4
    computed elsewhere with entries near 1e6 can trip it.

    Only a refused pattern has its symplectic residual ``M^T J M - J`` taken, to choose
    ``NotSymplectic`` or ``NotInHatGroup``.  Entry (i, j) is ``-(ci aj) - di bj + ai cj
    + bi dj - Jij``, summed as the tests' literal 4x4 products sum, so the two match bit
    for bit.  A residual or determinant past the float range is a ``NumericalBreakdown``.
    """
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m.rows
    # Entry k ^ 1 of row i against entry k of row i ^ 1, for rows a and c: the pairs of
    # rows b and d are the same ones swapped, whose difference is negated exactly.
    commute = max(abs(a1 - b0), abs(a0 - b1), abs(a3 - b2), abs(a2 - b3),
                  abs(c1 - d0), abs(c0 - d1), abs(c3 - d2), abs(c2 - d3))
    anticommute = max(abs(a1 + b0), abs(a0 + b1), abs(a3 + b2), abs(a2 + b3),
                      abs(c1 + d0), abs(c0 + d1), abs(c3 + d2), abs(c2 + d3))
    if not isfinite(max(commute, anticommute)):
        raise NumericalBreakdown("non-finite commutation residual: the 4x4 entries overflow")
    if not min(commute, anticommute) <= _ABS_EPS:
        a, b, c, d = m.rows
        j = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))
        sym = [abs(-(c[i] * a[k]) - d[i] * b[k] + a[i] * c[k] + b[i] * d[k] - j[i][k])
               for i in range(4) for k in range(4)]
        if not all(map(isfinite, sym)):
            raise NumericalBreakdown("non-finite symplectic residual: the 4x4 products overflow")
        if not (sym_res := max(sym)) <= _ABS_EPS:
            raise NotSymplectic(f"symplectic residual {sym_res:.3e} exceeds {_ABS_EPS}")
        raise NotInHatGroup(f"commutation residuals ({commute:.3e}, {anticommute:.3e}) both exceed {_ABS_EPS}")
    # Rows a and c hold the top rows of the blocks A, B and C, D.  In this pattern the
    # entries of M^T J M - J are (det1 - 1 +- (det2 - 1)) / 2: the factor determinants.
    p1, q1, r1, s1 = a0 + a1, a2 + a3, c0 + c1, c2 + c3
    p2, q2, r2, s2 = a0 - a1, a2 - a3, c0 - c1, c2 - c3
    try:
        _check_det(p1 * s1, q1 * r1)
        _check_det(p2 * s2, q2 * r2)
    except NotUnimodular as exc:  # an overflowing determinant fails the gate too
        if not (isfinite(p1 * s1 - q1 * r1) and isfinite(p2 * s2 - q2 * r2)):
            raise NumericalBreakdown("non-finite symplectic residual: the 4x4 products overflow") from None
        raise NotSymplectic(f"factor of the patterned matrix: {exc}") from exc
    return _motion((p1, q1, r1, s1), (p2, q2, r2, s2), 1 if commute <= anticommute else -1)


def _images(motion: MotionMatrix, w1: complex, w2: complex) -> tuple[complex, complex]:
    """The one factor map, unchecked: ``(a w + b) / (c w + d)`` per factor, the images swapped
    where eps = -1.  A NaN factor gives a NaN image, ``c w + d == 0`` a ``ZeroDivisionError``."""
    (a1, b1, c1, d1), (a2, b2, c2, d2) = motion._e1, motion._e2
    g1, g2 = (a1 * w1 + b1) / (c1 * w1 + d1), (a2 * w2 + b2) / (c2 * w2 + d2)
    return (g2, g1) if motion.eps == -1 else (g1, g2)


def apply(motion: MotionMatrix, point: HPoint) -> HPoint:
    """Act on a half-space point: one Moebius map per factor coordinate (``_images``).

    For Im w > 0 and det 1, |cw + d|^2 = Im w / Im(mw) (Beardon, 1983): a denominator
    is small only where the image is high, and 0 only where ``c w`` rounds onto ``-d``,
    an image at infinity.  That, and the one check on the image, a point inside the
    ``_DOM_EPS`` margin or not finite, are numerical limits (``NumericalBreakdown``).
    """
    try:
        g1, g2 = _images(motion, point.w1, point.w2)
        return _hpoint(g1, g2, g1.real, g1.imag, g2.real, g2.imag)
    except ZeroDivisionError:
        raise NumericalBreakdown(f"image of ({point.w1!r}, {point.w2!r}) at infinity: a denominator is 0") from None
    except DomainViolation as exc:
        raise _image_breakdown(exc) from exc


def split(motion: MotionMatrix) -> tuple[Sl2Matrix, Sl2Matrix]:
    """The two unimodular factors of a motion: the one factor reader.

    They act on the half-plane coordinates (tau + z, tau - z), in that order
    for eps = +1 and with the images swapped for eps = -1.
    """
    return _sl2(*motion._e1), _sl2(*motion._e2)


def assemble(m1: Sl2Matrix, m2: Sl2Matrix, eps: int) -> MotionMatrix:
    """Glue two unimodular factors (and a sign) into a motion: the one checked builder
    from factors.  Each factor must be an ``Sl2Matrix`` and the sign pass ``_sign``."""
    for name, factor in (("m1", m1), ("m2", m2)):
        if type(factor) is not Sl2Matrix:
            raise ValidationError(f"{name} must be an Sl2Matrix, got {factor!r}")
    return _motion((m1.a, m1.b, m1.c, m1.d), (m2.a, m2.b, m2.c, m2.d), _sign(eps))


def _check_unit(name: str, xi: complex) -> None:
    """|xi|^2 = 1 under the determinant gate of the rotation factor, with the products
    that ``Sl2Matrix`` forms for the rotation factor of xi; the message names |xi|."""
    try:
        _check_det(xi.real * xi.real, -(xi.imag * xi.imag))
    except NotUnimodular:
        try:
            r = abs(xi)
        except OverflowError:
            r = inf
        raise UnitModulusViolation(f"|{name}|={r!r} is not 1") from None


def stabilizer_of_iI(xi1: complex, xi2: complex, eps: int = 1) -> MotionMatrix:
    """Real motion fixing the base point iI: a rotation about i per factor.

    The one gate of the parameters: each unit ``xi`` passes ``_check_unit``, then the sign
    ``_sign``.  The factors are ``[[Re xi, Im xi], [-Im xi, Re xi]]``; conjugated by the Cayley
    map they are the disc rotations ``u -> xi u / conj(xi)`` that ``stabilizer --model disc`` prints.
    """
    try:
        xi1, xi2 = complex(xi1), complex(xi2)
    except OverflowError:
        raise _past_float_range(UnitModulusViolation, xi1=xi1, xi2=xi2) from None
    _check_unit("xi1", xi1)
    _check_unit("xi2", xi2)
    r1, r2 = ((xi.real, xi.imag, -xi.imag, xi.real) for xi in (xi1, xi2))
    return _motion(r1, r2, _sign(eps))


def _transport_to_i(w: complex) -> tuple:
    """The entries ``(1/r, -x/r, 0.0, r)``, ``r = sqrt(y)``, of the factor sending w = x + iy to i:
    translate by -x, then scale by 1/y.  Its determinant ``(1/r) r`` is one to an ulp; the float
    ``0.0`` keeps a product's signed zeros.  The gate is on the entries it returns: for every
    height above ``_DOM_EPS``, ``r`` and ``1/r`` are finite, so only ``-x/r`` can overflow."""
    r = sqrt(w.imag)
    if not isfinite(b := -w.real / r):
        raise NumericalBreakdown(f"transvection of {w!r} to i overflows")
    return 1.0 / r, b, 0.0, r


def _half_conj_phase(w: complex) -> tuple:
    """``(cos h, sin h)`` for ``h = -arg(w) / 2``, and ``(1.0, 0.0)`` at the origin: bit for
    bit the parts of e^{-i arg(w) / 2} as ``cmath.exp`` gives it (its exponent's real part is 0).

    The disc stabilizer with parameters (xi1, xi2) rotates the two disc
    factors by the squares xi1^2, xi2^2 (numerator and denominator of its
    action each contribute one unit-modulus factor), so aligning a factor
    onto the positive real axis needs half its phase.
    """
    if abs(w) == 0.0:
        return 1.0, 0.0
    h = -0.5 * cmath.phase(w)
    return cos(h), sin(h)


def reduce_pair(z_base: HPoint, z_other: HPoint) -> ReducedPair:
    """Reduce an ordered pair of half-space points to canonical position.

    First transport ``z_base`` to iI, then rotate the two disc factors of
    the image of ``z_other`` onto the nonnegative real axis, with the larger
    radius in the first slot (ties keep the factor order; a swap is realized
    by an eps = -1 rotation).  The moved radii satisfy
    (1 + r)/(1 - r) = per-factor dilation, so the canonical entries

        lambda1 = (1 - r1 r2) / ((1 - r1)(1 - r2)) = (lam_big + lam_small)/2,
        lambda2 = (r1 - r2) / ((1 - r1)(1 - r2))   = (lam_big - lam_small)/2

    are computed from the chords of the raw pair, which stay accurate where
    1 - r has rounded to 0; they are independent of every internal choice.
    The mover is built in steps per factor: the transport ``T`` of ``z_base``'s
    factor ``x + iy`` to ``i`` (translate by -x, scale by 1/y), then the rotation
    ``R(xi)`` by the half phase ``(cos h, sin h)`` of ``z_other``'s factor image ``(w - x) / y``,
    as one ``_product`` ``R(xi) @ T`` on entries (a NaN phase fails its gate), so it builds only the
    records it returns.  The checks: ``T`` and the lambdas are finite (``NumericalBreakdown``).
    """
    b1, b2 = z_base.w1, z_base.w2
    t1, t2 = _transport_to_i(b1), _transport_to_i(b2)
    h1, h2 = (z_other.w1 - b1.real) / b1.imag, (z_other.w2 - b2.real) / b2.imag
    # Scalar per-factor Cayley transform for the aligning phases: an image
    # whose radius rounds to 1 still has its phase.
    c1, s1 = _half_conj_phase((h1 - 1j) / (h1 + 1j))
    c2, s2 = _half_conj_phase((h2 - 1j) / (h2 + 1j))
    s_plus, s_minus = _chord(b1, z_other.w1), _chord(b2, z_other.w2)
    swap = s_plus < s_minus
    s_big, s_small = (s_minus, s_plus) if swap else (s_plus, s_minus)
    # For the chord s = sinh(d/2) the dilation is e^d = m^2 with m = s + sqrt(1 + s^2):
    # m * (m / 2) is e^d / 2 correctly rounded, and overflows only where e^d / 2 does.
    m_big, m_small = s_big + hypot(1.0, s_big), s_small + hypot(1.0, s_small)
    half_big, half_small = m_big * (m_big / 2.0), m_small * (m_small / 2.0)
    lambda1, lambda2 = half_big + half_small, half_big - half_small
    if not lambda1 < inf:  # `not <` rejects NaN; lambda2 is finite with lambda1
        raise NumericalBreakdown(f"lambdas of the chords ({s_big!r}, {s_small!r}) leave the float range")
    m1 = _product((c1, s1, -s1, c1), t1)  # R(xi1) @ T1
    m2 = _product((c2, s2, -s2, c2), t2)
    _check_lambdas(lambda1, lambda2)
    red = _new(ReducedPair)
    _set_mover(red, _motion(m1, m2, -1 if swap else 1))
    _set_lambda1(red, lambda1)
    _set_lambda2(red, lambda2)
    return red


def _draw_sl2(rng: random.Random) -> tuple:
    """The entries of ``random_sl2``'s sample, drawn in its order."""
    theta = 2.0 * pi * rng.random()  # a + (b - a) U, as Random.uniform does
    lam = exp(-1.0 + 2.0 * rng.random())
    mu = -2.0 + 4.0 * rng.random()
    ct, st = cos(theta), sin(theta)
    # [[ct, st], [-st, ct]] @ [[lam, mu], [0, 1/lam]]
    return ct * lam, ct * mu + st / lam, -st * lam, -st * mu + ct / lam


def random_sl2(rng: random.Random) -> Sl2Matrix:
    """Seeded unimodular sample: rotation times upper-triangular.

    Draw order: angle uniform in [0, 2pi), log-scale uniform in [-1, 1],
    shear uniform in [-2, 2].
    """
    return _sl2(*_draw_sl2(rng))


def random_motion(rng: random.Random) -> MotionMatrix:
    """Seeded motion sample: two factors then a fair exchange sign, stored trusted."""
    return _motion(_draw_sl2(rng), _draw_sl2(rng), 1 if rng.random() < 0.5 else -1)
