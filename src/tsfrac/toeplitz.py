"""Symmetric-Toeplitz products and Strang circulant preconditioners.

Every dense matrix the package forms, A and the symmetric circulants s(A)
and P^{-1} (whose first columns are even), is T[i, j] = c[|i - j|], formed
by ``symmetric_toeplitz`` as one read-only view of 2n-1 values.

Each operation has two kernels, and the order n alone picks one.  Up to
``DENSE_CROSSOVER`` the operator keeps the dense Toeplitz matrix and the
preconditioner its dense inverse, so every apply is one BLAS product.  Above
it, the matvec embeds A in a circulant of power-of-two order >= 2n-1 and
costs one real FFT pair; the preconditioner solve costs one length-n real
FFT pair.  Both cache their real half-spectra.

The Strang preconditioner copies the central diagonals of A into a circulant
s(A); the per-level preconditioner is P = shift*I + kappa_bar*s(A), built
from the ToeplitzOperator of A.  The eigenvalues lam of s(A) depend on A
alone: the operator computes them once, on first use, and each level only
forms shift + kappa_bar*lam and its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

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
    """Symmetric Toeplitz operator, defined by its first column."""

    n: int
    first_col: np.ndarray
    embed_len: int              # smallest power of two >= 2n-1
    dense: Optional[np.ndarray] = None          # the matrix, n <= DENSE_CROSSOVER
    half_spectrum: Optional[np.ndarray] = None  # real DFT(embedding)[:L/2+1], above

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return toeplitz_matvec(self, v)

    @cached_property
    def strang_eigs(self) -> np.ndarray:
        """Eigenvalues of the Strang circulant s(A), computed on first use:
        the real part of DFT(c_S), checked to be real, since s(A) is a real
        symmetric circulant and a sizable imaginary part means broken input."""
        spec = fourier.fft(strang_first_column(self.first_col))
        lam = spec.real
        imag_resid = np.abs(spec.imag).max()
        if imag_resid > 1e-10 * max(np.abs(lam).max(), 1e-300):
            raise PreconditionerError(
                f"Strang spectrum is not numerically real (residual {imag_resid:g})"
            )
        lam.flags.writeable = False  # shared by every level's preconditioner
        return lam


def build_toeplitz(first_col: np.ndarray) -> ToeplitzOperator:
    first_col = np.asarray(first_col, dtype=float)
    n = first_col.size
    if n < 1:
        raise ValueError("first column must be nonempty")
    L = 1
    while L < max(2 * n - 1, 1):
        L *= 2
    if n <= DENSE_CROSSOVER:
        return ToeplitzOperator(n=n, first_col=first_col, embed_len=L,
                                dense=symmetric_toeplitz(first_col).copy())
    emb = np.zeros(L)
    emb[:n] = first_col
    emb[L - n + 1:] = first_col[1:][::-1]
    half = fourier.fft(emb)[: L // 2 + 1].real.copy()  # the embedding is even
    return ToeplitzOperator(n=n, first_col=first_col, embed_len=L, half_spectrum=half)


def toeplitz_matvec(op: ToeplitzOperator, v: np.ndarray) -> np.ndarray:
    """A @ v: one BLAS product, or O(n log n) through the circulant embedding.

    The embedding path zero-pads v to the embedding length, multiplies by
    the half-spectrum, inverse-transforms and keeps the leading n entries.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (op.n,):
        raise ValueError(f"vector has shape {v.shape}, operator order is {op.n}")
    if op.dense is not None:
        return op.dense @ v
    L = op.embed_len
    return np.fft.irfft(op.half_spectrum * np.fft.rfft(v, L), L)[: op.n]


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


@dataclass(frozen=True)
class CirculantPreconditioner:
    """P = shift*I + kappa_bar*s(A), diagonalized by the length-n DFT.

    It is built from the eigenvalues of P alone; the order n and the inverse
    are derived on construction: the dense circulant P^{-1} for
    n <= DENSE_CROSSOVER, otherwise the inverse half-eigenvalues.
    """

    total_eigs: np.ndarray  # shift + kappa_bar * eigenvalues of s(A), all > 0
    n: int = field(init=False)
    inv_half: np.ndarray = field(init=False, repr=False, compare=False)
    inv_dense: Optional[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", self.total_eigs.size)
        inv_half = 1.0 / self.total_eigs[: self.n // 2 + 1]
        inv_dense = None
        if self.n <= DENSE_CROSSOVER:
            # the first column of P^{-1} is even, so P^{-1} is its symmetric
            # Toeplitz matrix: synthesize c_0..c_{n//2} and mirror the rest
            head = _cosine_synthesis(self.n) @ inv_half
            inv_dense = symmetric_toeplitz(np.concatenate(
                (head, head[(self.n + 1) // 2 - 1: 0: -1]))).copy()
        object.__setattr__(self, "inv_half", inv_half)
        object.__setattr__(self, "inv_dense", inv_dense)

    def solve(self, v: np.ndarray) -> np.ndarray:
        return precond_solve(self, v)


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


def build_preconditioner(op: ToeplitzOperator, shift: float,
                         kappa_bar: float) -> CirculantPreconditioner:
    """Strang preconditioner shift*I + kappa_bar*s(A) of the operator A.

    The operator supplies its cached Strang eigenvalues lam.  Total
    eigenvalues shift + kappa_bar * lam must all be strictly positive,
    otherwise PreconditionerError signals a numerical breakdown.
    """
    if shift <= 0.0:
        raise ValueError(f"shift must be > 0, got {shift}")
    if kappa_bar <= 0.0:
        raise ValueError(f"kappa_bar must be > 0, got {kappa_bar}")
    total = shift + kappa_bar * op.strang_eigs
    if np.any(total <= 0.0):
        raise PreconditionerError("preconditioner has a non-positive eigenvalue")
    return CirculantPreconditioner(total)


def precond_solve(p: CirculantPreconditioner, v: np.ndarray) -> np.ndarray:
    """P^{-1} v: one BLAS product, or length-n real transforms."""
    v = np.asarray(v, dtype=float)
    if v.shape != (p.n,):
        raise ValueError(f"vector has shape {v.shape}, preconditioner order is {p.n}")
    if p.inv_dense is not None:
        return p.inv_dense @ v
    return np.fft.irfft(np.fft.rfft(v) * p.inv_half, p.n)
