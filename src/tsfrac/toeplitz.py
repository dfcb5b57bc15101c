"""Symmetric-Toeplitz products and Strang circulant preconditioners.

Every dense matrix the package forms, A and the symmetric circulants s(A)
and P^{-1} (whose first columns are even), is T[i, j] = c[|i - j|], formed
by ``symmetric_toeplitz`` as one read-only view of 2n-1 values.

One record, ``ToeplitzOperator``, holds both A and P^{-1}, and one kernel,
``_apply``, applies either; the order n alone picks its form.  Up to
``DENSE_CROSSOVER`` the record keeps the dense matrix, so every apply is one
symmetric BLAS product, ``dsymv``.  Above it, the record keeps the real
half-spectrum of a circulant of order ``embed_len`` that embeds the matrix,
and an apply costs one real FFT pair: A embeds in a circulant of
power-of-two order >= 2n-1, and the circulant P^{-1} is its own embedding
(``embed_len`` = n).

The Strang preconditioner copies the central diagonals of A into a circulant
s(A); the per-level preconditioner is P = shift*I + kappa_bar*s(A).  The
eigenvalues lam of s(A) depend on A alone: ``strang_eigenvalues`` computes
them, once per run, and each level's ``build_preconditioner`` only forms
shift + kappa_bar*lam and the inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.linalg.blas import dsymv

from . import fourier

# Largest order served by the dense kernels.  Measured on whole runs, FIDS
# pkrylov on example2 (alpha 1.9, gamma 0.5, r 2, eps 1e-9) at M = 300, one
# BLAS thread, each kernel forced, min of 3 interleaved runs at every n in
# [320, 440]; median s dense / real-FFT, and the orders where dense wins:
#   n = 320-339: 0.469 / 0.539, 18 of 20   340-359: 0.561 / 0.557, 13 of 20
#   n = 360-379: 0.643 / 0.529,  4 of 20   380-399: 0.766 / 0.616,  7 of 20
#   n = 400-419: 0.843 / 0.538,  2 of 20   420-440: 0.873 / 0.510,  1 of 21
# The FFT side loses where n has a large prime factor (n = 331: 0.392 /
# 0.598, 367: 0.594 / 0.878, 383: 0.837 / 0.913).  Summed over the scan, a
# switch at n = 359-360 costs least: 68.2 s, against 82.9 s at n = 440.
# The scan predates the dsymv dense kernel, which is 20-25% faster than the
# gemv it measured, so the best switch may now lie higher.
DENSE_CROSSOVER = 360


def symmetric_toeplitz(col: np.ndarray) -> np.ndarray:
    """Read-only (n, n) view T[i, j] = col[|i - j|] over the 2n-1 values
    [col reversed, col[1:]]: row i starts n-1-i entries in."""
    col = np.asarray(col, dtype=float)
    n = col.size
    ext = np.concatenate((col[::-1], col[1:]))
    step = ext.itemsize
    view = np.ndarray((n, n), buffer=ext, offset=(n - 1) * step,
                      strides=(-step, step))
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class ToeplitzOperator:
    """A symmetric Toeplitz matrix (A, or the circulant P^{-1}) of order n,
    in the one form n picks."""

    n: int
    embed_len: int              # order of the circulant the matrix embeds in
    dense: Optional[np.ndarray] = None          # the matrix, n <= DENSE_CROSSOVER
    half_spectrum: Optional[np.ndarray] = None  # real DFT(embedding)[:L/2+1], above


def build_toeplitz(first_col: np.ndarray) -> ToeplitzOperator:
    """The operator of T[i, j] = first_col[|i - j|], embedded above the
    crossover in a circulant of the smallest power-of-two order >= 2n-1."""
    first_col = np.asarray(first_col, dtype=float)
    n = first_col.size
    if n < 1:
        raise ValueError("first column must be nonempty")
    L = 1
    while L < max(2 * n - 1, 1):
        L *= 2
    if n <= DENSE_CROSSOVER:
        return ToeplitzOperator(n=n, embed_len=L,
                                dense=symmetric_toeplitz(first_col).copy())
    emb = np.zeros(L)
    emb[:n] = first_col
    emb[L - n + 1:] = first_col[1:][::-1]
    half = fourier.fft(emb)[: L // 2 + 1].real.copy()  # the embedding is even
    return ToeplitzOperator(n=n, embed_len=L, half_spectrum=half)


def _apply(op: ToeplitzOperator, v: np.ndarray) -> np.ndarray:
    """op @ v: one symmetric BLAS product (dsymv), or O(n log n) through the
    circulant embedding, which zero-pads v to the embedding order,
    multiplies by the half-spectrum, inverse-transforms and keeps the
    leading n entries.  The result is a fresh array of its own n values."""
    v = np.asarray(v, dtype=float)
    if v.shape != (op.n,):
        raise ValueError(f"vector has shape {v.shape}, operator order is {op.n}")
    if op.dense is not None:
        # the matrix is symmetric, so dsymv reads one triangle where a gemv
        # reads it all; dense.T is the same matrix, Fortran-ordered, so
        # nothing is copied, and dsymv returns a fresh array
        return dsymv(1.0, op.dense.T, v)
    L = op.embed_len
    X = np.fft.rfft(v, L)
    X *= op.half_spectrum
    out = np.fft.irfft(X, L)
    # the Krylov loops keep what this returns: a view of A's leading n
    # values would pin all L >= 2n-1 of its embedding
    return out if L == op.n else out[: op.n].copy()


def toeplitz_matvec(op: ToeplitzOperator, v: np.ndarray) -> np.ndarray:
    """A @ v for the operator of A."""
    return _apply(op, v)


def strang_first_column(first_col: np.ndarray) -> np.ndarray:
    """First column c_S of the Strang circulant of the Toeplitz matrix.

    With n = N-1 entries a_1..a_n of the first column of A (a_1 the diagonal),
    c_S = [a_1, ..., a_{floor((N+1)/2)}, a_{floor(N/2)}, ..., a_2]: the
    leading half is copied, the trailing half mirrors the central diagonals.
    """
    first_col = np.asarray(first_col, dtype=float)
    n = first_col.size
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    N = n + 1
    head = first_col[: (N + 1) // 2]
    tail = first_col[1: N // 2][::-1]
    return np.concatenate([head, tail])


class PreconditionerError(RuntimeError):
    """Raised when the circulant preconditioner is not positive definite."""


@lru_cache(maxsize=8)
def _cosine_synthesis(n: int) -> np.ndarray:
    """C with C @ X[:n//2+1] = irfft(X, n)[:n//2+1] for a real even spectrum X.

    c_j = (X_0 + 2 sum_{0<k<n/2} X_k cos(2 pi jk/n) + X_{n/2} (-1)^j) / n, the
    last term for even n only.  One small gemv replaces a length-n inverse FFT,
    which at a prime n goes through Bluestein.  Measured on the whole dense
    preconditioner build, one thread: 35-50% faster at n = 127, 331, 353 and
    359, 7-10% faster at n = 255 and 256, 3-13% slower at the FFT-friendly
    n = 360.
    """
    k = np.arange(n // 2 + 1)
    jk = np.outer(k, k) % n  # exact reduction keeps the angles small
    weight = np.full(k.size, 2.0 / n)
    weight[0] = 1.0 / n
    if n % 2 == 0:
        weight[-1] = 1.0 / n
    C = np.cos((2.0 * np.pi / n) * jk) * weight
    C.flags.writeable = False
    return C


def strang_eigenvalues(first_col: np.ndarray) -> np.ndarray:
    """Eigenvalues lam of the Strang circulant s(A) of A, given A's first
    column: the real part of DFT(c_S), s(A) being a real symmetric circulant.
    A run keeps lam, so it owns its n values and not a strided view that
    would keep the complex spectrum alive."""
    return fourier.fft(strang_first_column(first_col)).real.copy()


def build_preconditioner(lam: np.ndarray, shift: float,
                         kappa_bar: float) -> ToeplitzOperator:
    """P^{-1} for P = shift*I + kappa_bar*s(A), lam the eigenvalues of s(A).

    shift and kappa_bar must be finite and > 0, else ValueError.  Total
    eigenvalues shift + kappa_bar * lam must all be strictly positive,
    otherwise PreconditionerError signals a numerical breakdown.  Up to
    DENSE_CROSSOVER the result holds the dense circulant P^{-1}, otherwise
    the inverse half-eigenvalues, P^{-1} being its own embedding.
    """
    # NaN fails both tests
    if not 0.0 < shift < math.inf:
        raise ValueError(f"shift must be finite and > 0, got {shift}")
    if not 0.0 < kappa_bar < math.inf:
        raise ValueError(f"kappa_bar must be finite and > 0, got {kappa_bar}")
    total = shift + kappa_bar * lam
    if np.any(total <= 0.0):
        raise PreconditionerError("preconditioner has a non-positive eigenvalue")
    n = total.size
    inv_half = 1.0 / total[: n // 2 + 1]
    if n > DENSE_CROSSOVER:
        return ToeplitzOperator(n=n, embed_len=n, half_spectrum=inv_half)
    # the first column of P^{-1} is even, so P^{-1} is its symmetric
    # Toeplitz matrix: synthesize c_0..c_{n//2} and mirror the rest
    head = _cosine_synthesis(n) @ inv_half
    return build_toeplitz(np.concatenate((head, head[(n + 1) // 2 - 1: 0: -1])))


def precond_solve(p: ToeplitzOperator, v: np.ndarray) -> np.ndarray:
    """P^{-1} v for the operator of P^{-1} that build_preconditioner returns."""
    return _apply(p, v)
