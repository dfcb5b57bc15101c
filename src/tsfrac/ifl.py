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
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import gammaln


@dataclass(frozen=True)
class IflDiscretization:
    alpha: float
    mu: float
    nu: float
    kappa_mu: int      # 1 for mu in (alpha, 2), 2 for mu = 2
    l: float
    N: int
    h: float
    scale: float       # C = c_{1,alpha} / (nu h^alpha)
    first_col: np.ndarray  # shape (N-1,), first column of A

    def dense(self) -> np.ndarray:
        """Dense (N-1)x(N-1) assembly; for oracles and small direct solves."""
        return toeplitz(self.first_col)

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


def _kahan_sum(terms: np.ndarray) -> float:
    # diagonal entries decay like l^{-1-alpha}; compensated summation guards
    # the dominance margin, which itself shrinks like N^{-alpha}
    total = 0.0
    carry = 0.0
    for v in terms:
        y = v - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def build_ifl(alpha: float, mu: float, l: float, N: int) -> IflDiscretization:
    """Assemble the first-column representation of A.

    first_col[0] (diagonal) = C [ sum_{l=2}^{N-1} ((l+1)^nu - (l-1)^nu)/l^mu
                                  + (N^nu - (N-1)^nu)/N^mu
                                  + (2^nu + kappa_mu - 1) + 2 nu/(alpha N^alpha) ]
    first_col[1]            = -C (2^nu + kappa_mu - 1)/2
    first_col[k]            = -C ((k+1)^nu - (k-1)^nu)/(2 k^mu),  k >= 2.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    if not alpha < mu <= 2.0:
        raise ValueError(f"mu must lie in (alpha, 2], got mu={mu}, alpha={alpha}")
    if N < 3:
        raise ValueError(f"N must be >= 3, got {N}")
    if l <= 0.0:
        raise ValueError(f"half-width l must be > 0, got {l}")

    nu = mu - alpha
    kappa_mu = 2 if mu == 2.0 else 1
    h = 2.0 * l / N
    scale = normalization_constant(alpha) / (nu * h ** alpha)

    ell = np.arange(2.0, N)
    series = ((ell + 1.0) ** nu - (ell - 1.0) ** nu) / ell ** mu
    diag = (
        _kahan_sum(series)
        + (N ** nu - (N - 1.0) ** nu) / N ** mu
        + (2.0 ** nu + kappa_mu - 1.0)
        + 2.0 * nu / (alpha * N ** alpha)
    )

    col = np.empty(N - 1)
    col[0] = scale * diag
    col[1] = -scale * (2.0 ** nu + kappa_mu - 1.0) / 2.0
    k = np.arange(2.0, N - 1)
    col[2:] = -scale * ((k + 1.0) ** nu - (k - 1.0) ** nu) / (2.0 * k ** mu)

    return IflDiscretization(
        alpha=float(alpha), mu=float(mu), nu=float(nu), kappa_mu=kappa_mu,
        l=float(l), N=int(N), h=h, scale=scale, first_col=col,
    )


def diagonal_dominance_gap(d) -> float:
    """D(A) = min_i (|a_ii| - sum_{j != i} |a_ij|), in O(N) using symmetry.

    Accepts an IflDiscretization or a bare first column.  Row i (1-based,
    i = 1..n) of the symmetric Toeplitz matrix has off-diagonal magnitude sum
    S_i = sum_{k=1}^{i-1} |c_k| + sum_{k=1}^{n-i} |c_k| where c_k =
    first_col[k]; the minimum over rows is taken via prefix sums.
    """
    col = d.first_col if hasattr(d, "first_col") else np.asarray(d, dtype=float)
    c = np.abs(col)
    n = c.size
    prefix = np.concatenate([[0.0], np.cumsum(c[1:])])  # prefix[j] = sum_{k=1}^{j} |c_k|
    i = np.arange(1, n + 1)
    row_sums = prefix[i - 1] + prefix[n - i]
    return float(np.min(c[0] - row_sums))


def dominance_gap_dense(C: np.ndarray) -> float:
    """D(C) for an arbitrary dense matrix: min_i (|C_ii| - sum_{j != i} |C_ij|)."""
    C = np.asarray(C, dtype=float)
    absC = np.abs(C)
    diag = np.diag(absC)
    return float(np.min(2.0 * diag - absC.sum(axis=1)))
