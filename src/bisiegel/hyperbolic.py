"""Independent upper half-plane oracle.

One hyperbolic plane, one scalar formula on plain complex numbers.  The
half-space geometry factors through two copies of this plane, so ``verify``
cross-checks the factor distances against it; it shares no code with them.
"""

from __future__ import annotations

import math

__all__ = ["hyp_distance"]


def hyp_distance(w1: complex, w2: complex) -> float:
    """Hyperbolic distance, the log of the pair dilation lambda, as log1p(lambda - 1)
    with lambda - 1 = q/2 + sqrt(q) sqrt(1 + q/4) for q = ((x1 - x2)^2 + (y1 - y2)^2)
    / (y1 y2) = lambda + 1/lambda - 2 >= 0: no cancellation for near pairs."""
    dx, dy = w1.real - w2.real, w1.imag - w2.imag
    q = (dx * dx + dy * dy) / (w1.imag * w2.imag)
    return math.log1p(q / 2.0 + math.sqrt(q) * math.sqrt(1.0 + q / 4.0))
