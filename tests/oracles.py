"""Reference implementations used only as test oracles.

- ``jacobi_eigenvalues``: cyclic Jacobi rotations for dense symmetric
  matrices, the eigenvalue oracle of the matrix-property checks.
- ``dft_direct``: the O(n^2) direct DFT.
- ``radix2_fft``/``radix2_ifft``: an iterative radix-2 FFT for power-of-two
  lengths.
- ``bluestein_dft``/``bluestein_idft``: arbitrary-length DFTs by Bluestein's
  chirp-z reduction on the radix-2 core.

The transforms are cross-checked against each other and against the
production ``tsfrac.fourier`` engine, so an engine swap keeps both routes
honest.
"""

from __future__ import annotations

import math

import numpy as np


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
