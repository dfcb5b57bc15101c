"""Reference implementations used only as test oracles.

- ``jacobi_eigenvalues``: cyclic Jacobi rotations for dense symmetric
  matrices, the eigenvalue oracle of the matrix-property checks.
- ``dft_direct``: the O(n^2) direct DFT.
- ``radix2_fft``/``radix2_ifft``: an iterative radix-2 FFT for power-of-two
  lengths.
- ``bluestein_dft``/``bluestein_idft``: arbitrary-length DFTs by Bluestein's
  chirp-z reduction on the radix-2 core.
- ``level_solve_unscaled``: one DIDS/FIDS level system as written,
  (shift*I + diag(kappa) A) u = rhs, solved by LU.
- ``cg_reference``/``bicgstab_reference``: the allocating preconditioned CG
  and right-preconditioned BiCGSTAB loops that ``tsfrac.krylov`` runs in
  place; same algorithm, stopping rule, counting and breakdown labels.
- ``history_push_outer``: the SOE accumulator update with its rank-one
  term formed as an ``np.outer`` temporary.

The transforms are cross-checked against each other and against the
production ``tsfrac.fourier`` engine, so an engine swap keeps both routes
honest.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from tsfrac.krylov import KrylovReport, _psolve_of


def jacobi_eigenvalues(
    A: np.ndarray,
    tol: float = 1e-12,
    max_sweeps: int = 60,
) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, ascending.

    Sweeps rotate away every off-diagonal pair (p, q) until the off-diagonal
    Frobenius mass falls below tol * ||A||_F.  Raises if the matrix is not
    symmetric or the iteration fails to converge (it will not, for symmetric
    input).
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"matrix must be square, got {A.shape}")
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-10 * max(1.0, np.abs(A).max())):
        raise ValueError("matrix is not symmetric")
    if n == 1:
        return A[0, :1].copy()

    B = A.copy()
    norm = np.linalg.norm(B)
    if norm == 0.0:
        return np.zeros(n)

    off_mask = 1.0 - np.eye(n)
    for _ in range(max_sweeps):
        # off-diagonal Frobenius mass summed directly; the difference
        # ||B||_F^2 - ||diag||^2 cancels catastrophically near convergence
        off = math.sqrt(np.sum(B * B * off_mask))
        if off <= tol * norm:
            return np.sort(np.diag(B))
        skip = off / (n * n)  # pairs below this contribute nothing this sweep
        for p in range(n - 1):
            row = B[p]
            for q in range(p + 1, n):
                apq = row[q]
                if abs(apq) <= skip:
                    continue
                app = B[p, p]
                aqq = B[q, q]
                theta = 0.5 * (aqq - app) / apq
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                # rotate rows/columns p and q
                bp = B[p].copy()
                bq = B[q].copy()
                B[p] = c * bp - s * bq
                B[q] = s * bp + c * bq
                bp = B[:, p].copy()
                bq = B[:, q].copy()
                B[:, p] = c * bp - s * bq
                B[:, q] = s * bp + c * bq
                B[p, q] = 0.0
                B[q, p] = 0.0
                row = B[p]
    raise RuntimeError("Jacobi iteration did not converge")


def dft_direct(x: np.ndarray) -> np.ndarray:
    """O(n^2) direct DFT; the oracle the fast transforms are checked against."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    j = np.arange(n)
    return np.exp(-2j * math.pi * np.outer(j, j) / n) @ x


_plan_cache: dict[int, tuple[np.ndarray, list[np.ndarray]]] = {}


def _radix2_plan(n: int):
    plan = _plan_cache.get(n)
    if plan is None:
        bits = n.bit_length() - 1
        rev = np.zeros(n, dtype=np.intp)
        for i in range(n):
            rev[i] = int(format(i, f"0{bits}b")[::-1], 2) if bits else 0
        twiddles = []
        size = 2
        while size <= n:
            half = size // 2
            twiddles.append(np.exp(-2j * math.pi * np.arange(half) / size))
            size *= 2
        plan = (rev, twiddles)
        _plan_cache[n] = plan
    return plan


def radix2_fft(x: np.ndarray) -> np.ndarray:
    """Iterative Cooley-Tukey FFT; length must be a power of two."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    if n == 0 or n & (n - 1):
        raise ValueError(f"radix-2 FFT needs a power-of-two length, got {n}")
    rev, twiddles = _radix2_plan(n)
    a = x[rev]
    size = 2
    for tw in twiddles:
        half = size // 2
        a = a.reshape(-1, size)
        odd = a[:, half:] * tw
        even = a[:, :half].copy()
        a[:, :half] = even + odd
        a[:, half:] = even - odd
        a = a.reshape(-1)
        size *= 2
    return a


def radix2_ifft(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    return np.conj(radix2_fft(np.conj(x))) / x.size


def bluestein_dft(x: np.ndarray) -> np.ndarray:
    """Arbitrary-length forward DFT via the chirp-z reduction.

    Writes jk = (j^2 + k^2 - (k-j)^2)/2 so the DFT becomes a convolution of
    chirp-modulated sequences, evaluated with the power-of-two radix-2 core.
    """
    x = np.asarray(x, dtype=complex)
    n = x.size
    if n == 0:
        raise ValueError("empty input")
    if n == 1:
        return x.copy()
    j = np.arange(n)
    chirp = np.exp(-1j * math.pi * (j * j % (2 * n)) / n)
    L = 1
    while L < 2 * n - 1:
        L *= 2
    a = np.zeros(L, dtype=complex)
    a[:n] = x * chirp
    b = np.zeros(L, dtype=complex)
    b[:n] = np.conj(chirp)
    b[L - n + 1:] = np.conj(chirp[1:][::-1])
    conv = radix2_ifft(radix2_fft(a) * radix2_fft(b))
    return conv[:n] * chirp


def bluestein_idft(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    return np.conj(bluestein_dft(np.conj(x))) / x.size


def level_solve_unscaled(A: np.ndarray, shift: float, kappa: np.ndarray,
                         rhs: np.ndarray) -> np.ndarray:
    """u with (shift*I + diag(kappa) A) u = rhs, assembled and solved by LU."""
    return np.linalg.solve(shift * np.eye(A.shape[0]) + kappa[:, None] * A, rhs)


def cg_reference(
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


def bicgstab_reference(
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


def history_push_outer(W: np.ndarray, nodes: np.ndarray, delta_u: np.ndarray,
                       tau_m: float) -> np.ndarray:
    """W_j <- e^{-s_j tau_m} W_j + (delta_u / tau_m) (1 - e^{-s_j tau_m}) / s_j,
    returned as a new array; the rank-one term is one ``np.outer``."""
    W = W * np.exp(-nodes * tau_m)[:, None]
    W += np.outer(-np.expm1(-nodes * tau_m) / nodes, delta_u / tau_m)
    return W
