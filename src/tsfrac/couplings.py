"""Grid-coupling rules used by the convergence studies.

Temporal studies couple the spatial resolution to the step count,
N(M) = 2 M^{p/q}, and spatial studies couple the other way,
M(N) = (N/2)^{q/p}, with p = min(r*gamma, 2-gamma) and q = 2 for the
smooth-profile studies or q = mu for the reduced-regularity ones.  The CLI's
``--coupling 2|mu`` selects q; the subcommand selects the direction.

Both rules truncate the double-precision value.  This is deliberate and
load-bearing: the pinned benchmark numbers depend on it, including cases
where the expression lands one ulp below an exact integer (2 * 1024^0.6
evaluates to 127.99...97, so the coupled N is 127, not 128).
"""

from __future__ import annotations

import math


def temporal_exponent(r: float, gamma: float) -> float:
    """p = min(r*gamma, 2-gamma), the graded-L1 temporal order."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    return min(r * gamma, 2.0 - gamma)


def n_from_m(M: int, r: float, gamma: float, q: float) -> int:
    """Spatial intervals for a temporal study: trunc(2 M^{p/q})."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    return int(2.0 * M ** (temporal_exponent(r, gamma) / q))


def m_from_n(N: int, r: float, gamma: float, q: float) -> int:
    """Time steps for a spatial study: trunc((N/2)^{q/p})."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    return max(1, int((N / 2.0) ** (q / temporal_exponent(r, gamma))))


def rate(err_coarse: float, err_fine: float) -> float:
    """log2 error ratio between consecutive doubled resolutions."""
    return math.log2(err_coarse / err_fine)
