"""Graded temporal meshes, L1 quadrature weights for the Caputo derivative
and the L1 formula's level constants.

The temporal grid is t_m = (m/M)^r T, which concentrates points near t = 0
where solutions of sub-diffusion problems are weakly singular.  A mesh holds
(M, r, T) and no array: ``GradedMesh.times`` evaluates the levels a reader
asks for, and a reader takes its steps tau_m = t_m - t_{m-1} from the times
it evaluated.  A reader that walks all levels does so LEVEL_BLOCK levels at
a time (``GradedMesh.blocks``), so a FIDS run's memory is O(N_exp N), as
its history's, and a lean run holds nothing of length M.

The discrete Caputo derivative at level m is
(1/Gamma(1-gamma)) sum_{k=1}^m a_k (u^k - u^{k-1}), the same in DIDS and
FIDS.  Its newest term, k = m, is the level's own: ``level_shift`` gives its
weight a_m / Gamma(1-gamma) of u^m in the level-m system, from the step
tau_m that the caller has evaluated, and ``gamma_factor`` gives
Gamma(1-gamma), which a run computes once.  The rest is the history sum
S_m = sum_{k<m} a_k (u^k - u^{k-1}): its weights, ``l1_weights``, are the
exact per-interval averages of the kernel (t_m - s)^{-gamma} over the
intervals before level m, formed as a panel: several levels' rows over an
explicit range of intervals, the weights from a level's own interval on
being zero, from the levels' times that the caller evaluated once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln


# Levels whose times ``GradedMesh.blocks`` evaluates at once: a walk over
# the levels holds two arrays of LEVEL_BLOCK + 1 floats, 2 kB, at any M
LEVEL_BLOCK = 128


@dataclass(frozen=True)
class GradedMesh:
    """Temporal grid t_m = (m/M)^r T, m = 0..M, with steps
    tau_m = t_m - t_{m-1} > 0; t_0 = 0, t_M = T.

    It holds (M, r, T) and no array: ``times`` evaluates the levels a
    reader asks for, and the reader takes a step from the same evaluation
    as the two times it separates.  So the mesh adds nothing of length M
    to a FIDS run, whose memory is O(N_exp N): a lean run holds its
    accumulators, u^{m-1} and a few vectors of length N."""

    M: int
    r: float
    T: float

    def times(self, m):
        """t_m for an integer level m in [0, M], or the array of t_m for an
        integer array of levels; any other level raises ValueError, naming
        it.  One level is evaluated as a one-value float64 array, by the same
        expression as every other, so t_m has the same bits however it is
        asked for (Python's float ``**`` differs from numpy's array power in
        the last bit at some levels)."""
        levels = np.asarray(m)
        bad = (levels.ravel() if levels.dtype.kind not in "iu"
               else levels[(levels < 0) | (levels > self.M)])
        if bad.size:
            raise ValueError(f"level must be an integer in [0, {self.M}], "
                             f"got {bad.flat[0]}")
        # (m / M) ** r * T, in place
        t = np.array(levels, dtype=float, ndmin=1)
        t /= self.M
        t **= self.r
        t *= self.T
        return t if levels.ndim else t[0]

    def blocks(self, first: int = 1):
        """The levels first..M in consecutive blocks of up to LEVEL_BLOCK,
        each as (m0, t, tau): t the times t_{m0-1}..t_{m0+k-1}, evaluated at
        once, and tau = diff(t) the block's k steps tau_{m0}..tau_{m0+k-1}."""
        for m0 in range(first, self.M + 1, LEVEL_BLOCK):
            t = self.times(np.arange(m0 - 1, min(m0 + LEVEL_BLOCK, self.M + 1)))
            yield m0, t, np.diff(t)


def build_mesh(M: int, r: float, T: float) -> GradedMesh:
    """The graded mesh t_m = (m/M)^r T, which allocates no array.

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
    return GradedMesh(M=M, r=r, T=T)


def gamma_factor(gamma: float) -> float:
    """Gamma(1-gamma), for a gamma checked to lie in (0, 1)."""
    # NaN fails the test
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    return math.exp(gammaln(1.0 - gamma))


def _last_weight(tau_m: float, gamma: float) -> float:
    """a_m = tau_m^{-gamma} / (1-gamma), the weight of the newest interval,
    the closed form of the L1 weight at k = m (R = 0)."""
    return tau_m ** (-gamma) / (1.0 - gamma)


def level_shift(gamma: float, tau_m: float, g1mg: float) -> float:
    """shift_m = a_m / Gamma(1-gamma), the weight of u^m in the level-m
    system, from the level's step tau_m, which the caller takes from the
    same evaluation as the level's time, and g1mg = ``gamma_factor(gamma)``.
    A step that is not finite and > 0 raises, naming it."""
    # NaN fails both tests
    if not 0.0 < tau_m < math.inf:
        raise ValueError(f"step tau_m must be finite and > 0, got {tau_m}")
    return _last_weight(tau_m, gamma) / g1mg


def l1_weights(mesh: GradedMesh, gamma: float, levels: np.ndarray,
               times: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The (levels x columns) panel of the L1 history weights
    a_k = [(t_m-t_{k-1})^{1-g} - (t_m-t_k)^{1-g}] / (tau_k (1-g)), k = start+1..stop,
    one row for each level m of the 1-D integer array ``levels``, whose
    times t_m are ``times`` = ``mesh.times(levels)``, evaluated once by a
    caller that forms several panels of the same levels:
    a[i, k-1-start] = a_k at level levels[i] for k < m, and 0 from k = m on.

    This is the closed form of (1/tau_k) * int_{t_{k-1}}^{t_k} (t_m - s)^{-gamma} ds,
    the weights of the history sum S_m = sum_{k<m} a_k (u^k - u^{k-1}).  A
    row with stop >= m - 1 holds all its level's history weights from
    k = start+1, strictly positive and strictly increasing in k.  The newest
    weight a_m belongs to the level's own unknown: ``level_shift`` forms it.

    The power difference is evaluated as R^{1-g} expm1((1-g) log1p(tau_k/R))
    with R = t_m - t_k, in place: for gamma near 1 the naive form cancels
    catastrophically and can even break monotonicity.  The step tau_k is the
    difference of the interval's own two times, so an early interval at a
    late level keeps its accuracy, where (t_m - t_{k-1}) - R, the difference
    of two rounded differences of times near t_m, cancels.  The log path
    never sees the singular endpoint R = 0 of the interval k = m.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    low, high = int(levels.min()), int(levels.max())
    if not 1 <= low <= high <= mesh.M:
        raise ValueError(f"level m must lie in [1, {mesh.M}], got {levels}")
    if not 0 <= start < stop <= high:
        raise ValueError(f"weights k = {start + 1}..{stop} must form a nonempty "
                         f"range in 1..{high}")
    t = mesh.times(np.arange(start, stop + 1))
    tau = np.diff(t)
    R = times[:, None] - t[1:]
    # the tau panel: tau_k / R, zero from k = m on (R <= 0), where R = 1
    # takes the log path to a weight of 0
    q = np.empty_like(R)
    q[:] = tau
    if stop >= low:
        past = np.arange(start + 1, stop + 1) >= levels[:, None]
        R[past] = 1.0
        q[past] = 0.0
    q /= R
    one_mg = 1.0 - gamma
    np.log1p(q, out=q)
    q *= one_mg
    np.expm1(q, out=q)
    np.log(R, out=R)
    R *= one_mg
    np.exp(R, out=R)
    q *= R
    tau *= one_mg
    q /= tau
    return q
