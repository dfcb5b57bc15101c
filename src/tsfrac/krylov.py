"""Matrix-free preconditioned Krylov solvers and the dense direct solver.

The Krylov solvers take the operator as a callable v -> M v (for a time
level, shift*v + K*(A v)); its order is the length of the right-hand side.
The preconditioner is None or a callable v -> P^{-1} v.
BiCGSTAB applies the circulant preconditioner on the right (solve
M P^{-1} y = b, x = P^{-1} y), so the residual driving the stopping rule
||r_k||_2 / ||r_0||_2 < tol is that of the unpreconditioned system, not of
the preconditioned one.  It is the recurrence's residual, updated by
daxpy, which equals b - M x_k only in exact arithmetic.  At the default
tol 1e-10 the two agree (8.3e-12 recurrence against 8.9e-12 true, one
level at n = 2047 with the Strang preconditioner); below about cond * eps
they drift apart, and at tol 1e-14 the same level stopped at 7.4e-15 with
a true residual of 3.2e-12.  CG uses the
standard preconditioned recurrence; the circulant preconditioner is SPD by
construction.  The initial guess is always the zero vector and the default
tolerance is 1e-10.  Either loop runs at most 10 n iterations for a system
of order n, a fixed rule, and reports a solve that has not converged by
then with converged False and no breakdown.  A relative residual that is
not finite (NaN in the right-hand side, or an operator or preconditioner
that returns NaN or infinity) ends either solve at once as the breakdown
"non-finite residual", rather than after 10 n passes that cannot converge.

Both loops run in place (Barrett et al., Templates for the Solution of
Linear Systems, SIAM 1994, sections 2.3.1 and 2.3.8): the iterate, the
residual and the search direction are allocated once per solve and updated
by BLAS-1 ``daxpy``, with inner products and norms from ``ddot``/``dnrm2``.
BiCGSTAB writes its half-step residual s over r and reads the right-hand
side, never writing it, as the shadow residual r0.  The loops keep the
vectors that ``apply`` and the preconditioner's solve return, so each call
must return a fresh array, never a buffer it writes again on a later call.

The dense solver is LAPACK's Cholesky solve ``dposv`` for a symmetric
positive definite matrix, the only kind a direct time level forms; it
factors a Fortran-ordered matrix in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.blas import daxpy, ddot, dnrm2
from scipy.linalg.lapack import dposv


@dataclass(frozen=True)
class KrylovReport:
    iterations: int
    final_relative_residual: float
    converged: bool
    breakdown: Optional[str] = None


def solve_cg(
    apply: Callable[[np.ndarray], np.ndarray],
    precond: Optional[Callable[[np.ndarray], np.ndarray]],
    rhs: np.ndarray,
    tol: float = 1e-10,
) -> tuple[np.ndarray, KrylovReport]:
    """Preconditioned conjugate gradients; operator must be SPD.

    Stops after at most 10 n iterations for a system of order n.  A
    non-positive curvature term signals loss of positive definiteness and
    is reported as a breakdown rather than raised, as is a residual that is
    not finite.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.size
    max_iters = 10 * n
    psolve = precond if precond is not None else (lambda v: v)

    x = np.zeros(n)
    r = rhs.copy()
    nrm0 = float(np.linalg.norm(r))  # dnrm2 rejects an empty vector
    if nrm0 == 0.0:
        return x, KrylovReport(0, 0.0, True)
    z = psolve(r)
    p = z.copy()  # z is r itself without a preconditioner
    rz = ddot(r, z)
    for it in range(1, max_iters + 1):
        q = apply(p)
        curv = ddot(p, q)
        if curv <= 0.0:
            return x, KrylovReport(it, dnrm2(r) / nrm0, False,
                                   breakdown="non-positive curvature")
        alpha = rz / curv
        daxpy(p, x, a=alpha)
        daxpy(q, r, a=-alpha)
        rel = dnrm2(r) / nrm0
        if rel < tol:
            return x, KrylovReport(it, rel, True)
        if not rel < math.inf:  # NaN fails the test
            return x, KrylovReport(it, rel, False, breakdown="non-finite residual")
        z = psolve(r)
        rz_new = ddot(r, z)
        p *= rz_new / rz
        daxpy(z, p)
        rz = rz_new
    return x, KrylovReport(max_iters, dnrm2(r) / nrm0, False)


def solve_bicgstab(
    apply: Callable[[np.ndarray], np.ndarray],
    precond: Optional[Callable[[np.ndarray], np.ndarray]],
    rhs: np.ndarray,
    tol: float = 1e-10,
) -> tuple[np.ndarray, KrylovReport]:
    """Right-preconditioned BiCGSTAB with the zero initial guess.

    Stops on ||r_k||_2 / ||r_0||_2 < tol where r_k is the recurrence
    residual of the unpreconditioned system.  It equals b - M x_k only in
    exact arithmetic: the two agree at tol 1e-10, but below about
    cond * eps the true residual stays above tol while r_k goes on falling.
    Vanishing rho or omega inner products, and a residual that is not
    finite, are reported as breakdowns.  Each pass of the loop counts as
    one iteration, including passes that converge at the intermediate
    residual check; it stops after at most 10 n passes for a system of
    order n.
    """
    r0 = np.asarray(rhs, dtype=float)  # the shadow residual, never written
    n = r0.size
    max_iters = 10 * n
    psolve = precond if precond is not None else (lambda v: v)

    x = np.zeros(n)
    r = r0.copy()
    nrm0 = float(np.linalg.norm(r0))  # dnrm2 rejects an empty vector
    if nrm0 == 0.0:
        return x, KrylovReport(0, 0.0, True)
    rho = alpha = omega = 1.0
    p = np.empty(n)
    for it in range(1, max_iters + 1):
        rho_new = ddot(r0, r)
        if rho_new == 0.0:
            return x, KrylovReport(it, dnrm2(r) / nrm0, False,
                                   breakdown="rho vanished")
        if it == 1:
            p[:] = r
        else:
            # p = r + beta (p - omega v)
            daxpy(v, p, a=-omega)
            p *= (rho_new / rho) * (alpha / omega)
            daxpy(r, p)
        p_hat = psolve(p)
        v = apply(p_hat)
        denom = ddot(r0, v)
        if denom == 0.0:
            return x, KrylovReport(it, dnrm2(r) / nrm0, False,
                                   breakdown="r0.v vanished")
        alpha = rho_new / denom
        s = daxpy(v, r, a=-alpha)  # s = r - alpha v overwrites r
        if dnrm2(s) / nrm0 < tol:
            daxpy(p_hat, x, a=alpha)
            return x, KrylovReport(it, dnrm2(s) / nrm0, True)
        s_hat = psolve(s)
        t = apply(s_hat)
        tt = ddot(t, t)
        if tt == 0.0:
            return x, KrylovReport(it, dnrm2(s) / nrm0, False,
                                   breakdown="omega denominator vanished")
        omega = ddot(t, s) / tt
        # x before r: without a preconditioner s_hat is s, which r overwrites
        daxpy(p_hat, x, a=alpha)
        daxpy(s_hat, x, a=omega)
        r = daxpy(t, s, a=-omega)
        rho = rho_new
        rel = dnrm2(r) / nrm0
        if rel < tol:
            return x, KrylovReport(it, rel, True)
        if not rel < math.inf:  # NaN fails the test
            return x, KrylovReport(it, rel, False, breakdown="non-finite residual")
        if omega == 0.0:
            return x, KrylovReport(it, rel, False, breakdown="omega vanished")
    return x, KrylovReport(max_iters, dnrm2(r) / nrm0, False)


def solve_dense(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the symmetric positive definite system by Cholesky.

    Only the lower triangle is read.  The matrix may be overwritten: a
    Fortran-ordered float array is replaced by its Cholesky factor.  A
    matrix that is not positive definite raises, naming the first leading
    minor that is not positive.
    """
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n) or rhs.shape != (n,):
        raise ValueError("matrix/rhs shapes are inconsistent")
    if n == 0:  # dposv rejects an empty system
        return rhs.copy()
    # the lower triangle of a Fortran-ordered matrix factors faster
    _, x, info = dposv(matrix, rhs, lower=1, overwrite_a=1)
    if info != 0:
        raise ValueError(f"matrix is not positive definite: its leading minor "
                         f"of order {info} is not positive")
    return x
