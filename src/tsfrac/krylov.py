"""Matrix-free preconditioned Krylov solvers and the dense direct solver.

The Krylov solvers take the operator as a callable v -> M v (for a time
level, shift*v + K*(A v)); its order is the length of the right-hand side.
BiCGSTAB applies the circulant preconditioner on the right (solve
M P^{-1} y = b, x = P^{-1} y), so the residual driving the stopping rule
||r_k||_2 / ||r_0||_2 < tol is the true-system residual.  CG uses the
standard preconditioned recurrence; the circulant preconditioner is SPD by
construction.  The initial guess is always the zero vector and the default
tolerance is 1e-10.

The dense solver dispatches like MATLAB's backslash: Cholesky for an exactly
symmetric matrix whose factorization finds only positive pivots, LU with
partial pivoting otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dposv


@dataclass(frozen=True)
class KrylovReport:
    iterations: int
    final_relative_residual: float
    converged: bool
    breakdown: Optional[str] = None


def _psolve_of(precond):
    if precond is None:
        return lambda v: v
    if hasattr(precond, "solve"):
        return precond.solve
    return precond  # already a callable


def solve_cg(
    apply: Callable[[np.ndarray], np.ndarray],
    precond,
    rhs: np.ndarray,
    tol: float = 1e-10,
    max_iters: int | None = None,
) -> tuple[np.ndarray, KrylovReport]:
    """Preconditioned conjugate gradients; operator must be SPD.

    A non-positive curvature term signals loss of positive definiteness and
    is reported as a breakdown rather than raised.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.size
    max_iters = max_iters if max_iters is not None else 10 * n
    psolve = _psolve_of(precond)

    x = np.zeros(n)
    r = rhs.copy()
    nrm0 = float(np.linalg.norm(r))
    if nrm0 == 0.0:
        return x, KrylovReport(0, 0.0, True)
    z = psolve(r)
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, max_iters + 1):
        q = apply(p)
        curv = float(p @ q)
        if curv <= 0.0:
            return x, KrylovReport(it, float(np.linalg.norm(r)) / nrm0, False,
                                   breakdown="non-positive curvature")
        alpha = rz / curv
        x += alpha * p
        r -= alpha * q
        rel = float(np.linalg.norm(r)) / nrm0
        if rel < tol:
            return x, KrylovReport(it, rel, True)
        z = psolve(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, KrylovReport(max_iters, float(np.linalg.norm(r)) / nrm0, False)


def solve_bicgstab(
    apply: Callable[[np.ndarray], np.ndarray],
    precond,
    rhs: np.ndarray,
    tol: float = 1e-10,
    max_iters: int | None = None,
) -> tuple[np.ndarray, KrylovReport]:
    """Right-preconditioned BiCGSTAB with the zero initial guess.

    Stops on ||r_k||_2 / ||r_0||_2 < tol where r_k is the true residual.
    Vanishing rho or omega inner products are reported as breakdowns.
    Each pass of the loop counts as one iteration, including passes that
    converge at the intermediate residual check.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.size
    max_iters = max_iters if max_iters is not None else 10 * n
    psolve = _psolve_of(precond)

    x = np.zeros(n)
    r = rhs.copy()
    r0 = rhs.copy()
    nrm0 = float(np.linalg.norm(r0))
    if nrm0 == 0.0:
        return x, KrylovReport(0, 0.0, True)
    rho = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    for it in range(1, max_iters + 1):
        rho_new = float(r0 @ r)
        if rho_new == 0.0:
            return x, KrylovReport(it, float(np.linalg.norm(r)) / nrm0, False,
                                   breakdown="rho vanished")
        if it == 1:
            p[:] = r
        else:
            beta = (rho_new / rho) * (alpha / omega)
            p = r + beta * (p - omega * v)
        p_hat = psolve(p)
        v = apply(p_hat)
        denom = float(r0 @ v)
        if denom == 0.0:
            return x, KrylovReport(it, float(np.linalg.norm(r)) / nrm0, False,
                                   breakdown="r0.v vanished")
        alpha = rho_new / denom
        s = r - alpha * v
        if float(np.linalg.norm(s)) / nrm0 < tol:
            x += alpha * p_hat
            return x, KrylovReport(it, float(np.linalg.norm(s)) / nrm0, True)
        s_hat = psolve(s)
        t = apply(s_hat)
        tt = float(t @ t)
        if tt == 0.0:
            return x, KrylovReport(it, float(np.linalg.norm(s)) / nrm0, False,
                                   breakdown="omega denominator vanished")
        omega = float(t @ s) / tt
        x += alpha * p_hat + omega * s_hat
        r = s - omega * t
        rho = rho_new
        rel = float(np.linalg.norm(r)) / nrm0
        if rel < tol:
            return x, KrylovReport(it, rel, True)
        if omega == 0.0:
            return x, KrylovReport(it, rel, False, breakdown="omega vanished")
    return x, KrylovReport(max_iters, float(np.linalg.norm(r)) / nrm0, False)


DENSE_SOLVE_CAP = 2048


def solve_dense(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Direct solve: Cholesky when the matrix is symmetric positive definite,
    else LU with partial pivoting.  The caller's matrix is never modified.

    Symmetry is tested exactly; a non-positive pivot in the Cholesky
    factorization sends the solve to LU, which raises on a singular matrix.
    """
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n) or rhs.shape != (n,):
        raise ValueError("matrix/rhs shapes are inconsistent")
    if n > DENSE_SOLVE_CAP:
        raise ValueError(f"dense solve capped at {DENSE_SOLVE_CAP}, got {n}")
    # a Fortran-ordered copy reaches LAPACK without another copy, and for a
    # C-ordered matrix its transpose compares contiguously against the input
    a = matrix.copy(order="F")
    if n > 0 and np.array_equal(matrix, a.T):  # dposv rejects an empty system
        # the lower triangle factors faster than the upper on this layout
        _, x, info = dposv(a, rhs, lower=1, overwrite_a=1)
        if info == 0:
            return x
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is singular") from exc
