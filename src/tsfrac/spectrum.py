"""Dense spectrum diagnostics for the per-level systems and preconditioners.

Everything here assembles dense matrices (capped at a few hundred unknowns)
and goes through LAPACK (``eigvalsh``/``svdvals``).  The diagnostics take
the Toeplitz first column of A (``IflDiscretization.first_col``) and form A
and s(A) through the Toeplitz layer's ``symmetric_toeplitz``; the
x-dependent one builds the Strang preconditioner as a run does.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigvalsh, svdvals

from .toeplitz import (build_preconditioner, precond_solve, strang_eigenvalues,
                       strang_first_column, symmetric_toeplitz)

DENSE_SPECTRUM_CAP = 256


def check_order(n: int) -> None:
    """Raise, naming n and the cap, when order n is above DENSE_SPECTRUM_CAP."""
    if n > DENSE_SPECTRUM_CAP:
        raise ValueError(
            f"dense diagnostics capped at order {DENSE_SPECTRUM_CAP}, got {n}")


def _first_col(first_col) -> np.ndarray:
    col = np.asarray(first_col, dtype=float)
    check_order(col.size)
    return col


def dense_system(first_col, shift: float, kappa: np.ndarray) -> np.ndarray:
    """Dense shift*I + diag(kappa) A for one time level, A given by its
    Toeplitz first column; shift and kappa must be positive and finite."""
    col = _first_col(first_col)
    n = col.size
    kappa = np.broadcast_to(np.asarray(kappa, dtype=float), (n,))
    # NaN fails both tests
    if not 0.0 < shift < np.inf:
        raise ValueError(f"shift must be positive and finite, got {shift}")
    bad = np.flatnonzero(~((kappa > 0.0) & (kappa < np.inf)))
    if bad.size:
        raise ValueError(f"kappa must be positive and finite, got kappa[{bad[0]}] "
                         f"= {kappa[bad[0]]}")
    return shift * np.eye(n) + kappa[:, None] * symmetric_toeplitz(col)


def system_eigenvalues(first_col, shift: float, kappa_const: float) -> np.ndarray:
    """Eigenvalues of the (symmetric, constant-kappa) level matrix, ascending."""
    col = _first_col(first_col)
    return eigvalsh(dense_system(col, shift, np.full(col.size, kappa_const)))


def preconditioned_eigenvalues(first_col, shift: float,
                               kappa_const: float) -> np.ndarray:
    """Eigenvalues of P^{-1} M for constant kappa, ascending.

    Both M and the Strang preconditioner P = shift*I + kappa*s(A) are
    symmetric and P is positive definite, so these are the eigenvalues of
    the symmetric-definite pencil (M, P).
    """
    col = _first_col(first_col)
    n = col.size
    M = dense_system(col, shift, np.full(n, kappa_const))
    # s(A), a symmetric circulant, is the Toeplitz matrix of its even column
    P = shift * np.eye(n) + kappa_const * symmetric_toeplitz(strang_first_column(col))
    return eigvalsh(M, P)


def preconditioned_singular_values(first_col, shift: float,
                                   kappa: np.ndarray) -> np.ndarray:
    """Singular values of P^{-1} M for x-dependent kappa, ascending.

    The preconditioned matrix is nonsymmetric here, so the diagnostic reports
    singular values instead of asserting a symmetric eigendecomposition.
    """
    col = _first_col(first_col)
    M = dense_system(col, shift, kappa)
    p = build_preconditioner(strang_eigenvalues(col), shift, float(np.mean(kappa)))
    PinvM = np.column_stack([precond_solve(p, col) for col in M.T])
    return svdvals(PinvM)[::-1]


def gershgorin_summary(matrix: np.ndarray) -> dict:
    """Disc centers/radii extrema of a dense matrix (nonsymmetric-safe)."""
    matrix = np.asarray(matrix, dtype=float)
    diag = np.diag(matrix)
    radii = np.abs(matrix).sum(axis=1) - np.abs(diag)
    return {
        "center_min": float(diag.min()),
        "center_max": float(diag.max()),
        "radius_max": float(radii.max()),
        "lower_bound": float((diag - radii).min()),
        "upper_bound": float((diag + radii).max()),
    }
