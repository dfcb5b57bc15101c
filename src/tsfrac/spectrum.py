"""Dense spectrum diagnostics for the per-level systems and preconditioners.

Everything here assembles dense matrices (capped at a few hundred unknowns)
and goes through LAPACK (``eigvalsh``/``svdvals``).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import circulant, eigvalsh, svdvals, toeplitz

from .toeplitz import build_preconditioner, precond_solve, strang_first_column

DENSE_SPECTRUM_CAP = 256


def _first_col(disc) -> np.ndarray:
    col = disc.first_col if hasattr(disc, "first_col") else np.asarray(disc, float)
    if col.size > DENSE_SPECTRUM_CAP:
        raise ValueError(
            f"dense diagnostics capped at order {DENSE_SPECTRUM_CAP}, got {col.size}"
        )
    return col


def dense_system(disc, shift: float, kappa: np.ndarray) -> np.ndarray:
    """Dense shift*I + diag(kappa) A for one time level.

    ``disc`` is an IflDiscretization or a bare Toeplitz first column.
    """
    col = _first_col(disc)
    n = col.size
    kappa = np.broadcast_to(np.asarray(kappa, dtype=float), (n,))
    return shift * np.eye(n) + kappa[:, None] * toeplitz(col)


def system_eigenvalues(disc, shift: float, kappa_const: float) -> np.ndarray:
    """Eigenvalues of the (symmetric, constant-kappa) level matrix, ascending."""
    n = _first_col(disc).size
    return eigvalsh(dense_system(disc, shift, np.full(n, kappa_const)))


def preconditioned_eigenvalues(disc, shift: float,
                               kappa_const: float) -> np.ndarray:
    """Eigenvalues of P^{-1} M for constant kappa, ascending.

    Both M and the Strang preconditioner P = shift*I + kappa*s(A) are
    symmetric and P is positive definite, so these are the eigenvalues of
    the symmetric-definite pencil (M, P).
    """
    col = _first_col(disc)
    n = col.size
    M = dense_system(col, shift, np.full(n, kappa_const))
    P = shift * np.eye(n) + kappa_const * circulant(strang_first_column(col))
    return eigvalsh(M, P)


def preconditioned_singular_values(disc, shift: float,
                                   kappa: np.ndarray) -> np.ndarray:
    """Singular values of P^{-1} M for x-dependent kappa, ascending.

    The preconditioned matrix is nonsymmetric here, so the diagnostic reports
    singular values instead of asserting a symmetric eigendecomposition.
    """
    col = _first_col(disc)
    M = dense_system(col, shift, kappa)
    p = build_preconditioner(col, shift, float(np.mean(kappa)))
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
