"""Discrete Fourier transforms for the structured linear algebra layer.

Production code paths (Toeplitz matvec embedding, circulant preconditioner
solves) go through :func:`fft` / :func:`ifft`, which delegate to numpy's
pocketfft.  The reference transforms they are checked against live with the
tests (``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np


def fft(x: np.ndarray) -> np.ndarray:
    """Forward complex DFT, any length."""
    return np.fft.fft(x)


def ifft(x: np.ndarray) -> np.ndarray:
    """Inverse complex DFT, any length."""
    return np.fft.ifft(x)
