"""Finite-difference discretization of the integral fractional Laplacian.

On Omega = (-l, l) with homogeneous extended Dirichlet data, the operator of
order alpha in (0, 2) is discretized on N interior intervals as a symmetric
Toeplitz matrix A of order N-1, stored by its first column.  The splitting
parameter mu in (alpha, 2] controls the weight function used in the
construction; nu = mu - alpha and the row scale is
C = c_{1,alpha} / (nu h^alpha) with h = 2l/N.

A is a strictly diagonally dominant M-matrix with positive diagonal (hence
symmetric positive definite), its off-diagonal magnitudes decay like
k^{-1-alpha}, and all of that is exercised by the test suite against dense
assembly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .toeplitz import symmetric_toeplitz


@dataclass(frozen=True)
class IflDiscretization:
    nu: float
    kappa_mu: int      # 1 for mu in (alpha, 2), 2 for mu = 2
    l: float
    N: int
    h: float
    scale: float       # C = c_{1,alpha} / (nu h^alpha)
    first_col: np.ndarray  # shape (N-1,), first column of A

    def dense(self) -> np.ndarray:
        """Dense (N-1)x(N-1) A, a writable copy of the Toeplitz layer's view,
        for test oracles and the benchmark's DIDS set-up."""
        return symmetric_toeplitz(self.first_col).copy()

    def interior_points(self) -> np.ndarray:
        """Interior grid x_i = -l + i h, i = 1..N-1."""
        return -self.l + self.h * np.arange(1, self.N)


def normalization_constant(alpha: float) -> float:
    """c_{1,alpha} = 2^{alpha-1} alpha Gamma((alpha+1)/2) / (sqrt(pi) Gamma(1-alpha/2))."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    return (
        2.0 ** (alpha - 1.0)
        * alpha
        * math.exp(gammaln((alpha + 1.0) / 2.0) - gammaln(1.0 - alpha / 2.0))
        / math.sqrt(math.pi)
    )


def splitting_parameter(alpha: float, mu: Optional[float]) -> float:
    """mu, or 1 + alpha/2 when mu is None, checked to lie in (alpha, 2]
    after alpha is checked to lie in (0, 2)."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    mu = 1.0 + alpha / 2.0 if mu is None else mu
    if not alpha < mu <= 2.0:
        raise ValueError(f"mu must lie in (alpha, 2], got mu={mu}, alpha={alpha}")
    return mu


def build_ifl(alpha: float, mu: float, l: float, N: int) -> IflDiscretization:
    """Assemble the first-column representation of A.

    first_col[0] (diagonal) = C [ sum_{l=2}^{N-1} ((l+1)^nu - (l-1)^nu)/l^mu
                                  + (N^nu - (N-1)^nu)/N^mu
                                  + (2^nu + kappa_mu - 1) + 2 nu/(alpha N^alpha) ]
    first_col[1]            = -C (2^nu + kappa_mu - 1)/2
    first_col[k]            = -C ((k+1)^nu - (k-1)^nu)/(2 k^mu),  k >= 2.
    """
    splitting_parameter(alpha, mu)
    try:
        N = operator.index(N)
    except TypeError:
        raise ValueError(f"N must be an integer >= 3, got {N!r}") from None
    if N < 3:
        raise ValueError(f"N must be an integer >= 3, got {N}")
    if not 0.0 < l < math.inf:  # NaN fails both tests
        raise ValueError(f"half-width l must be finite and > 0, got {l}")

    nu = mu - alpha
    kappa_mu = 2 if mu == 2.0 else 1
    h = 2.0 * l / N
    scale = normalization_constant(alpha) / (nu * h ** alpha)

    # the terms decay like l^{-1-alpha}; an exactly rounded sum guards the
    # dominance margin, which itself shrinks like N^{-alpha}
    ell = np.arange(2.0, N)
    series = ((ell + 1.0) ** nu - (ell - 1.0) ** nu) / ell ** mu
    diag = (
        math.fsum(series)
        + (N ** nu - (N - 1.0) ** nu) / N ** mu
        + (2.0 ** nu + kappa_mu - 1.0)
        + 2.0 * nu / (alpha * N ** alpha)
    )

    col = np.empty(N - 1)
    col[0] = scale * diag
    # the 2 nu/(alpha N^alpha) term overflows for a subnormal alpha
    if not math.isfinite(col[0]):
        raise ValueError(f"alpha = {alpha!r} is too small for N = {N}: the "
                         f"diagonal of A is {col[0]}, not finite")
    col[1] = -scale * (2.0 ** nu + kappa_mu - 1.0) / 2.0
    k = np.arange(2.0, N - 1)
    col[2:] = -scale * ((k + 1.0) ** nu - (k - 1.0) ** nu) / (2.0 * k ** mu)

    return IflDiscretization(
        nu=float(nu), kappa_mu=kappa_mu,
        l=float(l), N=N, h=h, scale=scale, first_col=col,
    )

