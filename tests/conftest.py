import contextlib
import io
import json
import math
import random
from decimal import Decimal, localcontext

import pytest

from bisiegel.cli import main
from bisiegel.domain import HPoint
from bisiegel.errors import NumericalBreakdown
from bisiegel.geometry import _chords
from bisiegel.group import (
    StabilizerParams,
    _half_conj_phase,
    _transvection_to_i,
    assemble,
    split,
    stabilizer_of_iI,
)
from bisiegel.numkit import Mat4R


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


def point_gap(p: HPoint, q: HPoint) -> float:
    return max(abs(p.tau - q.tau), abs(p.z - q.z))


def extreme_pair(rng):
    """Two points with factor heights and offsets 10^[-11.5, 307.5], offsets of either sign."""
    def draw():
        sign = rng.choice((-1.0, 1.0))
        return complex(sign * 10.0 ** rng.uniform(-11.5, 307.5), 10.0 ** rng.uniform(-11.5, 307.5))

    return tuple(HPoint.from_factors(draw(), draw()) for _ in range(2))


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
    """The motion sending ``point`` to iI: the two factor transvections that
    ``reduce_pair`` applies, glued with eps = +1."""
    return assemble(_transvection_to_i(point.w1), _transvection_to_i(point.w2), 1)


def composed_reduce_pair(z_base: HPoint, z_other: HPoint):
    """``reduce_pair`` through composed motions: the reference for its fused form.
    The factor images of ``z_other`` are taken raw, as ``reduce_pair`` takes them."""
    transport = transport_to_iI(z_base)
    images = (mobius(entries(m), w) for m, w in zip(split(transport), z_other.factors()))
    xi1, xi2 = (_half_conj_phase((h - 1j) / (h + 1j)) for h in images)
    s_plus, s_minus = _chords(z_base, z_other)
    swap = s_plus < s_minus
    s_big, s_small = (s_minus, s_plus) if swap else (s_plus, s_minus)
    try:
        lam_big, lam_small = ((s + math.hypot(1.0, s)) ** 2 for s in (s_big, s_small))
    except OverflowError:
        lam_big = lam_small = math.inf
    if not lam_big + lam_small < math.inf:
        raise NumericalBreakdown(f"lambdas of the chords ({s_big!r}, {s_small!r}) leave the float range")
    params = StabilizerParams(xi1, xi2, -1 if swap else 1)
    return stabilizer_of_iI(params) @ transport, (lam_big + lam_small) / 2, (lam_big - lam_small) / 2


def exact_chords(z1: HPoint, z2: HPoint, prec: int = 50) -> list:
    """sinh(d/2) per factor to ``prec`` digits, from the factor coordinates the
    library works with."""
    out = []
    with localcontext() as ctx:
        ctx.prec = prec
        for a, b in zip(z1.factors(), z2.factors()):
            dx, dy = Decimal(a.real) - Decimal(b.real), Decimal(a.imag) - Decimal(b.imag)
            out.append((dx * dx + dy * dy).sqrt() / (2 * (Decimal(a.imag) * Decimal(b.imag)).sqrt()))
    return out


def exact_lambdas(z1: HPoint, z2: HPoint, prec: int = 50) -> tuple:
    """The canonical (lambda1, lambda2) of the pair to ``prec`` digits, as Decimals:
    half the sum and difference of the factor dilations (s + sqrt(1 + s^2))^2."""
    with localcontext() as ctx:
        ctx.prec = prec
        big, small = sorted(((s + (s * s + 1).sqrt()) ** 2 for s in exact_chords(z1, z2, prec)), reverse=True)
        return (big + small) / 2, (big - small) / 2


@pytest.fixture
def rng():
    """Fresh deterministic stream per test."""
    return random.Random(20240613)
