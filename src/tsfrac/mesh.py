"""Graded temporal meshes, L1 quadrature weights for the Caputo derivative
and the L1 formula's level constants.

The temporal grid is t_m = (m/M)^r T, which concentrates points near t = 0
where solutions of sub-diffusion problems are weakly singular.  The L1 weights
are the exact per-interval averages of the kernel (t_m - s)^{-gamma}: one
level's row, or a panel of several levels' rows over a range of intervals,
the weights past a level being zero as in the lower-triangular L1 matrix.

The discrete Caputo derivative at level m is
(1/Gamma(1-gamma)) sum_{k=1}^m a_k (u^k - u^{k-1}), the same in DIDS and
FIDS; this module owns its constants: ``gamma_factor``, Gamma(1-gamma),
which a run computes once, and ``level_shift``, the weight
a_m / Gamma(1-gamma) of u^m in the level-m system.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln


@dataclass(frozen=True)
class GradedMesh:
    """Temporal grid t_m = (m/M)^r T with step sizes tau_m = t_m - t_{m-1}."""

    M: int
    t: np.ndarray    # shape (M+1,), t[0] = 0, t[M] = T, strictly increasing
    tau: np.ndarray  # shape (M,), tau[m-1] = t[m] - t[m-1] > 0


def build_mesh(M: int, r: float, T: float) -> GradedMesh:
    """Build the graded mesh t_m = (m/M)^r T.

    Requires an integer M >= 1, a finite real r >= 1 and a finite T > 0.
    """
    try:
        M = operator.index(M)
    except TypeError:
        raise ValueError(f"M must be a positive integer, got {M!r}") from None
    if M < 1:
        raise ValueError(f"M must be a positive integer, got {M}")
    # NaN fails both tests
    if not 1.0 <= r < math.inf:
        raise ValueError(f"grading exponent r must be finite and >= 1, got {r}")
    if not 0.0 < T < math.inf:
        raise ValueError(f"final time T must be finite and > 0, got {T}")
    t = (np.arange(M + 1, dtype=float) / M) ** r * T
    tau = np.diff(t)
    return GradedMesh(M=M, t=t, tau=tau)


def gamma_factor(gamma: float) -> float:
    """Gamma(1-gamma), for a gamma checked to lie in (0, 1)."""
    # NaN fails the test
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    return math.exp(gammaln(1.0 - gamma))


def _last_weight(tau_m: float, gamma: float) -> float:
    """a_m = tau_m^{-gamma} / (1-gamma), the weight of the newest interval."""
    return tau_m ** (-gamma) / (1.0 - gamma)


def level_shift(mesh: GradedMesh, gamma: float, m: int, g1mg: float) -> float:
    """shift_m = a_m / Gamma(1-gamma), the weight of u^m in the level-m
    system, with g1mg = ``gamma_factor(gamma)`` from the caller."""
    if not 1 <= m <= mesh.M:
        raise ValueError(f"level m must lie in [1, {mesh.M}], got {m}")
    return _last_weight(mesh.tau[m - 1], gamma) / g1mg


def l1_weights(mesh: GradedMesh, gamma: float, m, start: int = 0,
               stop: int | None = None) -> np.ndarray:
    """L1 weights a_k = [(t_m-t_{k-1})^{1-g} - (t_m-t_k)^{1-g}] / (tau_k (1-g)), k = start+1..stop.

    This is the closed form of (1/tau_k) * int_{t_{k-1}}^{t_k} (t_m - s)^{-gamma} ds.
    For one level m the result is 1-D, a[k-1-start] = a_k, with stop
    defaulting to m: ``l1_weights(mesh, gamma, m)`` holds all m weights of
    the level, strictly positive and strictly increasing in k.  For a 1-D
    array of levels it is the (levels x columns) panel of those rows, stop
    defaulting to the smallest level.  A weight past its level, k > m, is 0,
    as in the lower-triangular L1 matrix.

    The power difference is evaluated as R^{1-g} expm1((1-g) log1p((L-R)/R))
    with L = t_m - t_{k-1}, R = t_m - t_k: for gamma near 1 the naive form
    cancels catastrophically and can even break monotonicity.  The k = m term
    (R = 0) reduces exactly to tau_m^{-gamma} / (1-gamma); the log path never
    sees the singular endpoint.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    levels = np.atleast_1d(m)
    low, high = int(levels.min()), int(levels.max())
    if not 1 <= low <= high <= mesh.M:
        raise ValueError(f"level m must lie in [1, {mesh.M}], got {m}")
    stop = low if stop is None else stop
    if not 0 <= start < stop <= high:
        raise ValueError(f"weights k = {start + 1}..{stop} must form a nonempty "
                         f"range in 1..{high}")
    t = mesh.t
    tm = t[levels][:, None]
    L = tm - t[start:stop]
    R = tm - t[start + 1:stop + 1]
    one_mg = 1.0 - gamma
    # from k = m on (R <= 0), L = R = 1 takes the log path to 0; the newest
    # interval k = m then gets its closed form, in the rows that reach it
    newest = ()
    if stop >= low:
        past = np.arange(start + 1, stop + 1) >= levels[:, None]
        L[past] = R[past] = 1.0
        newest = np.flatnonzero((start < levels) & (levels <= stop))
    a = (np.exp(one_mg * np.log(R))
         * np.expm1(one_mg * np.log1p((L - R) / R))
         / (mesh.tau[start:stop] * one_mg))
    for i in newest:
        a[i, levels[i] - 1 - start] = _last_weight(mesh.tau[levels[i] - 1], gamma)
    return a if np.ndim(m) else a[0]
