"""Graded temporal meshes and L1 quadrature weights for the Caputo derivative.

The temporal grid is t_m = (m/M)^r T, which concentrates points near t = 0
where solutions of sub-diffusion problems are weakly singular.  The L1 weights
are the exact per-interval averages of the kernel (t_m - s)^{-gamma}.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np


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


def _last_weight(tau_m: float, gamma: float) -> float:
    """a_m = tau_m^{-gamma} / (1-gamma), the weight of the newest interval."""
    return tau_m ** (-gamma) / (1.0 - gamma)


def l1_weights(mesh: GradedMesh, gamma: float, m: int) -> np.ndarray:
    """L1 weights at level m: a[k-1] = a_k = [(t_m-t_{k-1})^{1-g} - (t_m-t_k)^{1-g}] / (tau_k (1-g)).

    This is the closed form of (1/tau_k) * int_{t_{k-1}}^{t_k} (t_m - s)^{-gamma} ds.
    The weights are strictly positive and strictly increasing in k.

    The power difference is evaluated as R^{1-g} expm1((1-g) log1p((L-R)/R))
    with L = t_m - t_{k-1}, R = t_m - t_k: for gamma near 1 the naive form
    cancels catastrophically and can even break monotonicity.  The k = m term
    (R = 0) reduces exactly to tau_m^{-gamma} / (1-gamma); the log path never
    sees the singular endpoint.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if not 1 <= m <= mesh.M:
        raise ValueError(f"level m must lie in [1, {mesh.M}], got {m}")
    t = mesh.t
    tm = t[m]
    one_mg = 1.0 - gamma
    a = np.empty(m)
    if m > 1:
        L = tm - t[:m - 1]
        R = tm - t[1:m]
        a[:-1] = (np.exp(one_mg * np.log(R))
                  * np.expm1(one_mg * np.log1p((L - R) / R))
                  / (mesh.tau[:m - 1] * one_mg))
    a[-1] = _last_weight(mesh.tau[m - 1], gamma)
    return a

