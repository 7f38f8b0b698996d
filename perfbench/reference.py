"""Independent scalar references and their forward error bounds.

Nothing here imports ``bisiegel``.  Points arrive as ``(tau, z)`` complex
pairs, motions as 4x4 row lists.  Every check compares a library output with
a closed form from plane hyperbolic geometry, with a tolerance taken from a
forward error bound, never from observed output:

    |computed - exact| <= gamma(n) * kappa * |exact|

where ``kappa`` is the condition number of the quantity with respect to
componentwise relative perturbations of the inputs (the floats the library
received), and ``gamma(n) = n u / (1 - n u)`` covers ``n`` roundings of unit
roundoff ``u = 2^-53`` on the computing path (Higham, *Accuracy and Stability
of Numerical Algorithms*, 2002, sections 2-3).  A comparison between two
computations (library and reference) allows the bound of each.
"""

from __future__ import annotations

import json
import math

U = 2.0**-53

#: Roundings charged to a scalar evaluation (subtractions, abs, sqrt,
#: division, asinh/log): a generous count for every formula checked here.
N_SCALAR = 32

#: Roundings charged to the 4x4 action: 2x2 complex block products, an
#: adjugate inverse and the factor read-off, each a handful of operations.
N_ACTION = 64

#: ``%.15g`` keeps 15 significant digits: relative error at most 5e-15.
PRINT_REL = 5e-15


def gamma(n: int) -> float:
    return n * U / (1.0 - n * U)


def factor_magnitudes(rows) -> tuple[float, float, float, float]:
    """Magnitudes bounding the Moebius coefficients of a patterned motion.

    Block ``X = [[x1, x2], [eps*x2, eps*x1]]`` gives the factor coefficients
    ``x1 +- x2``; their rounding is relative to ``|x1| + |x2|``.
    """
    return tuple(abs(rows[i][j]) + abs(rows[i][j + 1]) for i, j in ((0, 0), (0, 2), (2, 0), (2, 2)))


def mobius(m, w: complex) -> complex:
    a, b, c, d = m
    return (a * w + b) / (c * w + d)


def mobius_error(m, mag, w: complex, w_mag: float, w_err: float, n: int) -> float:
    """Forward error bound of a Moebius image.

    ``mag`` bounds the coefficient magnitudes and ``w_mag`` the argument's
    (the inputs the rounding is relative to), ``w_err`` is the absolute
    error already in the argument.
    """
    _, _, c, d = m
    ga, gb, gc, gd = mag
    den = abs(c * w + d)
    image = abs(mobius(m, w))
    spread = (ga * w_mag + gb) + image * (gc * w_mag + gd)
    # d(image)/dw = 1 / (c w + d)^2 for a unimodular factor.
    return gamma(n) * spread / den + w_err / (den * den)


def factor_distances(p, q):
    """Per-factor distances ``2 asinh(|w1 - w2| / (2 sqrt(y1 y2)))`` (Beardon,
    *The Geometry of Discrete Groups*, 1983, 7.2) and the condition number
    ``kappa`` of each with respect to the inputs ``(tau, z)`` of both points."""
    (t1, z1), (t2, z2) = p, q
    dt, dz = t1 - t2, z1 - z2
    scale = abs(t1) + abs(t2) + abs(z1) + abs(z2)
    out = []
    for s in (1.0, -1.0):
        delta = dt + s * dz
        y1 = t1.imag + s * z1.imag
        y2 = t2.imag + s * z2.imag
        x = abs(delta) / (2.0 * math.sqrt(y1 * y2))
        d = 2.0 * math.asinh(x)
        kappa_y = ((abs(t1) + abs(z1)) / y1 + (abs(t2) + abs(z2)) / y2) / 2.0
        kappa = scale / abs(delta) + kappa_y if delta else math.inf
        out.append((d, kappa))
    return out


def distance(p, q) -> tuple[float, float]:
    """Reference distance and the bound on ``|library - reference|``."""
    (dp, kp), (dm, km) = factor_distances(p, q)
    d = math.hypot(dp, dm)
    return d, 2.0 * gamma(N_SCALAR) * (1.0 + max(kp, km)) * d


def cross_ratio_eigenvalues(p, q):
    """``tanh^2(d/2)`` per factor, descending, each with its error bound.

    The relative condition of ``tanh^2(d/2)`` in ``d`` is at most 2.
    """
    pairs = []
    for d, kappa in factor_distances(p, q):
        rho = math.tanh(d / 2.0) ** 2
        pairs.append((rho, 2.0 * 2.0 * gamma(N_SCALAR) * (1.0 + kappa) * rho))
    pairs.sort(reverse=True)
    return pairs


def lambdas(p, q) -> tuple[float, float, float, float]:
    """Canonical entries ``(lambda1, lambda2)`` of the pair and the per-factor
    distances ``(d_big, d_small)`` they come from: ``lambda1 = (e^dB + e^dS)/2``,
    ``lambda2 = (e^dB - e^dS)/2``."""
    (dp, _), (dm, _) = factor_distances(p, q)
    big, small = max(dp, dm), min(dp, dm)
    eb, es = math.exp(big), math.exp(small)
    return (eb + es) / 2.0, (eb - es) / 2.0, big, small


def lambda_error(d_big: float, d_small: float, err_big: float, err_small: float) -> float:
    """Bound on either lambda from absolute bounds on the two factor distances."""
    return (math.exp(d_big) * math.expm1(err_big) + math.exp(d_small) * math.expm1(err_small)) / 2.0


_J = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))
_SIGMA = (1, 0, 3, 2)


def motion_residuals(rows, eps: int):
    """Worst symplectic and exchange residuals of a printed motion, each as
    ``(residual, bound)``.

    The motion is glued from two rounded unimodular factors, whose entries
    ``x1 +- x2`` carry errors relative to ``|x1| + |x2|``; ``W`` holds that
    magnitude for every entry.  Symplectic: ``M^T J M - J`` entrywise,
    bounded by ``(2 PRINT_REL + gamma(16)) (W^T |J| W)``.  Exchange:
    ``M Q - eps Q M`` for the block swap ``Q``, which only permutes entries,
    bounded by ``PRINT_REL`` times the two entries.
    """
    mt = list(zip(*rows))
    w = [[abs(rows[i][j]) + abs(rows[i][_SIGMA[j]]) for j in range(4)] for i in range(4)]
    wt = list(zip(*w))
    jm = [[sum(_J[i][k] * rows[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
    jw = [[sum(abs(_J[i][k]) * w[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
    sym = (0.0, 0.0)
    rel = 2.0 * PRINT_REL + gamma(16)
    for i in range(4):
        for j in range(4):
            val = sum(mt[i][k] * jm[k][j] for k in range(4)) - _J[i][j]
            bound = rel * sum(wt[i][k] * jw[k][j] for k in range(4))
            if abs(val) - bound > sym[0] - sym[1]:
                sym = (abs(val), bound)
    exch = (0.0, 0.0)
    for i in range(4):
        for j in range(4):
            a, b = rows[i][_SIGMA[j]], rows[_SIGMA[i]][j]
            val = abs(a - eps * b)
            bound = PRINT_REL * (abs(a) + abs(b))
            if val - bound > exch[0] - exch[1]:
                exch = (val, bound)
    return sym, exch


def parse_motion_line(line: str):
    doc = json.loads(line)
    rows = doc["m"]
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise ValueError("motion needs 4 rows of 4 entries")
    eps = doc["eps"]
    if eps not in (1, -1):
        raise ValueError(f"eps={eps!r} is not +1 or -1")
    return [[float(v) for v in row] for row in rows], eps
