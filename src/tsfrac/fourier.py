"""Discrete Fourier transforms for the structured linear algebra layer.

The spectra that ``toeplitz`` builds once per run (A's circulant
embedding and the Strang circulant) go through :func:`fft`, which delegates
to numpy's pocketfft.  The per-iteration kernels of ``toeplitz`` call
numpy's real transforms (``rfft``/``irfft``) directly.  The reference
transforms these are checked against live with the tests
(``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np


def fft(x: np.ndarray) -> np.ndarray:
    """Forward complex DFT, any length."""
    return np.fft.fft(x)


def ifft(x: np.ndarray) -> np.ndarray:
    """Inverse complex DFT, any length."""
    return np.fft.ifft(x)
