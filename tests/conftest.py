import contextlib
import inspect
import io
import json
import math
import random
from typing import Callable

import numpy as np
import pytest

import exact
from bisiegel.cli import main
from bisiegel.domain import HPoint, random_hpoint
from bisiegel.errors import NumericalBreakdown
from bisiegel.geometry import _chord, volume_density
from bisiegel.group import (
    Sl2Matrix,
    _half_conj_phase,
    _transport_to_i,
    apply,
    assemble,
    random_motion,
    stabilizer_of_iI,
)
from bisiegel.numkit import Mat4R
from bisiegel.verify import _fold


def mobius(m, w: complex) -> complex:
    """The half-plane oracle's action (a w + b) / (c w + d) of m = (a, b, c, d)."""
    a, b, c, d = m
    return (a * w + b) / (c * w + d)


def entries(m) -> tuple[float, float, float, float]:
    """A 2x2 factor as the (a, b, c, d) tuple ``mobius`` takes."""
    return (m.a, m.b, m.c, m.d)


def disc_stabilizer(xi1: complex, xi2: complex, eps: int) -> dict:
    """The JSON that ``stabilizer --model disc`` prints for these parameters."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["stabilizer", f"--xi1={xi1.real!r},{xi1.imag!r}",
                     f"--xi2={xi2.real!r},{xi2.imag!r}", "--eps", str(eps), "--model", "disc"])
    assert code == 0
    return json.loads(out.getvalue())


def mutated(module, name: str, old: str, new: str):
    """``module.name`` rebuilt from its source with the one ``old`` replaced by ``new``,
    in the module's namespace: a mutant that differs from the library only there."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1
    namespace: dict = {}
    exec(source.replace(old, new), vars(module), namespace)
    return namespace[name]


def extreme_pair(rng):
    """Two points with factor heights and offsets 10^[-11.5, 307.5], offsets of either sign."""
    return tuple(HPoint.from_factors(*exact.signed(rng, -11.5, 307.5)) for _ in range(2))


def volume_jacobian_residual(rng) -> tuple:
    """``verify``'s volume_jacobian trial (a sampler point, then a motion) with NumPy's
    determinant of the central-difference Jacobian, the reference to its exact
    ``|det J|^2`` from the literal pushforward."""
    z = random_hpoint(rng)
    m = random_motion(rng)
    h = 1e-6

    def coords(x1, x2, y1, y2):
        w = apply(m, HPoint(complex(x1, y1), complex(x2, y2)))
        return np.array((w.tau.real, w.z.real, w.tau.imag, w.z.imag))

    base = np.array((z.tau.real, z.z.real, z.tau.imag, z.z.imag))
    jac = np.column_stack([(coords(*(base + e)) - coords(*(base - e))) / (2.0 * h) for e in h * np.eye(4)])
    rhs = volume_density(z)
    return (abs(volume_density(apply(m, z)) * abs(float(np.linalg.det(jac))) - rhs) / rhs,)


# --------------------------------------------------------------------------
# Literal 4x4 references.  The library stores only the 4x4 record; these
# helpers compute on its rows and wrap each result in a Mat4R, so a
# non-finite entry raises NumericalBreakdown.


def mul4(*ms: Mat4R) -> Mat4R:
    """Product, associated left to right; each entry sums its four terms left
    to right, the order ``classify``'s closed-form residuals reproduce."""
    out = ms[0]
    for m in ms[1:]:
        cols = tuple(zip(*m.rows))
        out = Mat4R(
            tuple(
                tuple(a * e + b * f + c * g + d * h for e, f, g, h in cols)
                for a, b, c, d in out.rows
            )
        )
    return out


def scale4(m: Mat4R, s: float) -> Mat4R:
    return Mat4R(tuple(tuple(s * x for x in row) for row in m.rows))


def transpose(m: Mat4R) -> Mat4R:
    return Mat4R(tuple(zip(*m.rows)))


def max_abs4(m: Mat4R) -> float:
    return max(abs(x) for row in m.rows for x in row)


def gap4(x: Mat4R, y: Mat4R) -> float:
    """Max entrywise |x - y|."""
    return max_abs4(Mat4R(tuple(tuple(p - q for p, q in zip(r, s)) for r, s in zip(x.rows, y.rows))))


IDENTITY_4 = Mat4R(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))

#: Exchange involution Q on R^4: swaps the two coordinates of each half.
EXCHANGE_4 = Mat4R(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))

#: +-I and +-Q: the 4x4 matrices that act as the identity.
KERNEL_4 = (IDENTITY_4, scale4(IDENTITY_4, -1.0), EXCHANGE_4, scale4(EXCHANGE_4, -1.0))

#: Standard symplectic form J on R^4, [[0, I], [-I, 0]] in 2x2 blocks: M^T J M = J.
SYMPLECTIC_FORM = Mat4R(((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0)))


# --------------------------------------------------------------------------
# Pair-reduction references, through composed motions.


def transport_to_iI(point: HPoint):
    """The motion sending ``point`` to iI: the two factor transports that
    ``reduce_pair`` applies, wrapped as checked factors and glued with eps = +1."""
    return assemble(Sl2Matrix(*_transport_to_i(point.w1)), Sl2Matrix(*_transport_to_i(point.w2)), 1)


def composed_reduce_pair(z_base: HPoint, z_other: HPoint):
    """``reduce_pair`` through composed motions: the reference for its fused form.
    The factor images of ``z_other`` are taken in steps, ``(w - x) / y`` for the base
    factor ``x + iy``, as ``reduce_pair`` takes them."""
    transport = transport_to_iI(z_base)
    images = ((w - b.real) / b.imag for b, w in zip(z_base.factors(), z_other.factors()))
    xi1, xi2 = (complex(*_half_conj_phase((h - 1j) / (h + 1j))) for h in images)
    s_plus, s_minus = _chord(z_base.w1, z_other.w1), _chord(z_base.w2, z_other.w2)
    swap = s_plus < s_minus
    s_big, s_small = (s_minus, s_plus) if swap else (s_plus, s_minus)
    # Half of each dilation (s + sqrt(1 + s^2))^2, as m * (m / 2).
    half_big, half_small = (m * (m / 2) for m in (s + math.hypot(1.0, s) for s in (s_big, s_small)))
    if not half_big + half_small < math.inf:
        raise NumericalBreakdown(f"lambdas of the chords ({s_big!r}, {s_small!r}) leave the float range")
    return stabilizer_of_iI(xi1, xi2, -1 if swap else 1) @ transport, half_big + half_small, half_big - half_small


# --------------------------------------------------------------------------
# Finite differences on curves: the geodesic equation and the arc length as
# the tests state them.  The suite reads the reduced geodesic instead; these
# difference the curve and integrate its speed.

#: A curve s -> its factor pair (w1, w2), as ``GeodesicSpec._factors``.
_Curve = Callable[[float], tuple[complex, complex]]


def _geodesic_ode_residual(curve: _Curve, s: float, h: float) -> float:
    """Central-difference residual of the geodesic equation Z'' + i Z' Y^-1 Z' = 0,
    which per factor is the half-plane equation w'' + i w'^2 / Im w = 0; the
    larger of the two factor residuals.  ``curve`` returns the factor pair (w1, w2).

    For a true geodesic this decays like h^2; for a non-geodesic it stays
    bounded away from zero as h -> 0.
    """
    if not h > 0.0:
        raise ValueError(f"step h={h!r} must be positive")
    residuals = [abs((wp - 2.0 * w + wm) / (h * h) + 1j * ((wp - wm) / (2.0 * h)) ** 2 / w.imag)
                 for wm, w, wp in zip(curve(s - h), curve(s), curve(s + h))]
    return _fold(lambda _: residuals, None, 1)  # the suite's NaN-keeping max, over one trial


def _path_speed(curve: _Curve, s: float, h: float) -> float:
    """Metric speed at s of a curve that returns the factor pair (w1, w2): per
    factor |dw| / Im w, with dw taken by central differences."""
    (p1, p2), (m1, m2), (w1, w2) = curve(s + h), curve(s - h), curve(s)
    return math.hypot(abs(p1 - m1) / (2.0 * h) / w1.imag, abs(p2 - m2) / (2.0 * h) / w2.imag)


def _simpson(f: Callable[[float], float], a: float, b: float, panels: int) -> float:
    """Composite Simpson rule with the given (even) number of panels."""
    if panels < 2 or panels % 2 != 0:
        raise ValueError("panels must be a positive even integer")
    h = (b - a) / panels
    total = f(a) + f(b)
    for k in range(1, panels):
        total += f(a + k * h) * (4.0 if k % 2 else 2.0)
    return total * h / 3.0


def _path_length(curve: _Curve, a: float, b: float, panels: int) -> float:
    """Metric length over [a, b] of a curve that returns the factor pair (w1, w2): Simpson's
    rule over ``_path_speed``, whose central-difference step is 1e-5 of the span (at least 1e-5)."""
    h = max(abs(b - a), 1.0) * 1e-5
    return _simpson(lambda s: _path_speed(curve, s, h), a, b, panels)


@pytest.fixture
def rng():
    """Fresh deterministic stream per test."""
    return random.Random(20240613)
