"""Sum-of-exponentials compression of t^{-gamma} and fast history recurrences.

The kernel is written through the Gamma-function integral representation

    t^{-gamma} = (1/Gamma(gamma)) * int_0^inf e^{-t s} s^{gamma-1} ds

and the integral is discretized on a uniform lattice in u = ln s (midpoint
rule).  The infinite left tail of the lattice (s below a threshold where
e^{-st} is indistinguishable from its first-order expansion on [0, T]) is
collapsed into a single moment-matched node: the tail's weight and first
moment have closed geometric-series forms, and replacing the tail by
(sum w_j) e^{-s_bar t} with s_bar the weighted mean node costs at most
(T^2/2) * tail_mass * s_max^2, which is budgeted inside epsilon.  On the
right the lattice stops once e^{-s delta} has killed the integrand.  The
resulting nodes/weights are strictly positive and the approximation
satisfies

    |t^{-gamma} - sum_j w_j e^{-s_j t}| <= epsilon   for all t in [delta, T],

which is validated on a dense log-spaced grid at construction time (up to
the ~4-ulp evaluation floor of t^{-gamma} itself, which only matters for
delta far below the benchmark regimes); the step is refined automatically
until the bound holds or the node cap is exceeded.

History evaluation: with Delta u^k = u^k - u^{k-1}, the per-exponential
accumulators

    W_j^m = sum_{k<=m} (Delta u^k / tau_k) * int_{t_{k-1}}^{t_k} e^{-s_j (t_m - s)} ds

obey the one-step recurrence W_j^m = e^{-s_j tau_m} W_j^{m-1}
+ (Delta u^m / tau_m) (1 - e^{-s_j tau_m}) / s_j, so each time step costs
O(N_exp * N_spatial) independent of the step index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dger
from scipy.special import gammaln

from .mesh import GradedMesh, _last_weight

DEFAULT_NODE_CAP = 256
# rows of exp(-t s) formed at once by SoeApproximation.evaluate: a 4096-point
# validation grid at 100-200 nodes would otherwise take 3-7 MB in one piece
_EVAL_ROWS = 256


class SoeConstructionError(RuntimeError):
    """Raised when the tolerance cannot be met within the node cap."""


@dataclass(frozen=True)
class SoeApproximation:
    """Positive nodes/weights with sum_j w_j e^{-s_j t} ~ t^{-gamma} on [delta, T]."""

    gamma: float
    epsilon: float
    delta: float
    T: float
    nodes: np.ndarray    # s_j > 0, ascending
    weights: np.ndarray  # w_j > 0

    @property
    def n_exp(self) -> int:
        return int(self.nodes.size)

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        """Kernel approximation sum_j w_j e^{-s_j t} at the given times
        (flattened); exp(-t s) is formed ``_EVAL_ROWS`` rows at a time."""
        t = np.asarray(t, dtype=float).ravel()
        out = np.empty(t.size)
        for i in range(0, t.size, _EVAL_ROWS):
            rows = slice(i, i + _EVAL_ROWS)
            out[rows] = np.exp(-np.outer(t[rows], self.nodes)) @ self.weights
        return out


@dataclass
class FastHistory:
    """Per-exponential history accumulators for one running solve.

    Mutated in place by exactly one owner; the spatial columns of each update
    are independent.
    """

    soe: SoeApproximation
    W: np.ndarray = field(default=None)  # shape (N_exp, N_spatial)

    @classmethod
    def fresh(cls, soe: SoeApproximation, n_spatial: int) -> "FastHistory":
        return cls(soe=soe, W=np.zeros((soe.n_exp, n_spatial)))


def _lattice_step(gamma: float, target: float) -> float:
    """Lattice step h from the aliasing error of the log-variable midpoint rule.

    The relative aliasing error is ~ 2|Gamma(gamma + 2 pi i / h)| / Gamma(gamma);
    |Gamma(gamma + i y)| ~ sqrt(2 pi) y^{gamma - 1/2} e^{-pi y / 2} for large y.
    """
    lg = gammaln(gamma)
    y = 20.0
    for _ in range(60):
        y = (2.0 / math.pi) * (
            math.log(8.0 * math.sqrt(2.0 * math.pi))
            + (gamma - 0.5) * math.log(max(y, 1.0))
            - lg
            - math.log(target)
        )
    return 2.0 * math.pi / y


def _build_lattice(gamma: float, eps: float, delta: float, T: float, h: float):
    lg = gammaln(gamma)
    inv_g = math.exp(-lg)
    # collapse the lattice below s = a into one moment-matched node; the
    # replacement error is <= (T^2/2) * mass(a) * a^2 with
    # mass(a) = a^gamma/(gamma Gamma(gamma)), budgeted at eps/8
    a = (eps * gamma * math.exp(lg) / (4.0 * T * T)) ** (1.0 / (gamma + 2.0))
    j0 = math.floor(math.log(a) / h - 0.5)
    u0 = (j0 + 0.5) * h
    # geometric tail sums of weight and first moment over u_j <= u0
    m0 = h * inv_g * math.exp(gamma * u0) / (1.0 - math.exp(-gamma * h))
    m1 = h * inv_g * math.exp((gamma + 1.0) * u0) / (1.0 - math.exp(-(gamma + 1.0) * h))
    nodes, weights = [m1 / m0], [m0]
    j = j0 + 1
    while True:
        u = (j + 0.5) * h
        s = math.exp(u)
        w = h * math.exp(gamma * u) * inv_g
        nodes.append(s)
        weights.append(w)
        if s * delta > gamma + 1.0 and w * math.exp(-min(s * delta, 700.0)) < eps / 32.0:
            break
        j += 1
        if len(nodes) > 100_000:
            raise SoeConstructionError("right tail of the lattice does not terminate")
    return np.array(nodes), np.array(weights)


def _validate(soe: SoeApproximation, n_grid: int = 4096) -> bool:
    t = np.logspace(math.log10(soe.delta), math.log10(soe.T), n_grid)
    kernel = t ** (-soe.gamma)
    err = np.abs(kernel - soe.evaluate(t))
    # allow the evaluation's own round-off floor (a few ulp of t^{-gamma})
    return bool(np.all(err <= np.maximum(soe.epsilon, 4.0 * np.finfo(float).eps * kernel)))


def build_soe(
    gamma: float,
    epsilon: float,
    delta: float,
    T: float,
    node_cap: int = DEFAULT_NODE_CAP,
) -> SoeApproximation:
    """Compress t^{-gamma} on [delta, T] to absolute tolerance epsilon.

    Raises SoeConstructionError if the validated bound cannot be met within
    ``node_cap`` nodes.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if not 0.0 < delta < T:
        raise SoeConstructionError(
            f"cutoff must satisfy 0 < delta < T, got delta={delta}, T={T}"
        )

    # the absolute target at t = delta is the binding one: relative it is
    # epsilon * delta^gamma
    h = _lattice_step(gamma, epsilon * delta ** gamma / 4.0)
    for _ in range(6):
        s, w = _build_lattice(gamma, epsilon, delta, T, h)
        if s.size > node_cap:
            raise SoeConstructionError(
                f"tolerance {epsilon:g} on [{delta:g}, {T:g}] at gamma={gamma:g} "
                f"needs {s.size} exponentials, cap is {node_cap}"
            )
        soe = SoeApproximation(gamma=float(gamma), epsilon=float(epsilon),
                               delta=float(delta), T=float(T), nodes=s, weights=w)
        if _validate(soe):
            return soe
        h *= 0.85
    raise SoeConstructionError(
        f"validation failed to reach {epsilon:g} on [{delta:g}, {T:g}]"
    )


def fast_coefficients(soe: SoeApproximation, mesh: GradedMesh, m: int) -> np.ndarray:
    """Coefficients b_k at level m; the direct (O(m N_exp)) oracle form.

    b_k = sum_j w_j (e^{-s_j (t_m - t_k)} - e^{-s_j (t_m - t_{k-1})}) / (s_j tau_k)
    for k < m, and b_m equals the last L1 weight a_m.  Used to cross-check the
    recurrence path and for b_1 in the stability bound; the level loop never
    calls this.
    """
    if not 1 <= m <= mesh.M:
        raise ValueError(f"level m must lie in [1, {mesh.M}], got {m}")
    t = mesh.t
    b = np.empty(m)
    s, w = soe.nodes, soe.weights
    for k in range(1, m):
        # e^{-s(t_m - t_k)} - e^{-s(t_m - t_{k-1})} via expm1: the arguments
        # nearly coincide for the smallest nodes
        tau_k = mesh.tau[k - 1]
        ek = np.exp(-s * (t[m] - t[k])) * (-np.expm1(-s * tau_k))
        b[k - 1] = np.dot(w, ek / s) / tau_k
    b[m - 1] = _last_weight(mesh.tau[m - 1], soe.gamma)
    return b


def history_push(h: FastHistory, delta_u: np.ndarray, tau_m: float) -> FastHistory:
    """Advance the accumulators by one step: delta_u = u^m - u^{m-1}.

    W_j <- e^{-s_j tau_m} W_j + (delta_u / tau_m) (1 - e^{-s_j tau_m}) / s_j.
    Cost O(N_exp * N_spatial); mutates and returns h.
    """
    delta_u = np.asarray(delta_u, dtype=float)
    if delta_u.shape[0] != h.W.shape[1]:
        raise ValueError("delta_u length does not match the history width")
    if tau_m <= 0.0:
        raise ValueError(f"tau_m must be > 0, got {tau_m}")
    if not (h.W.flags.c_contiguous and h.W.dtype == np.float64):
        # dger would update a copy and leave W as it was
        raise ValueError("the accumulator W must be a C-contiguous float64 array")
    s = h.soe.nodes
    h.W *= np.exp(-s * tau_m)[:, None]
    # the rank-one term goes straight into W: dger updates the Fortran-ordered
    # view W.T in place, where np.outer would form an N_exp x N_spatial
    # temporary
    dger(1.0 / tau_m, delta_u, -np.expm1(-s * tau_m) / s, a=h.W.T, overwrite_a=1)
    return h


def fast_caputo_rhs(
    h: FastHistory,
    a_mm: float,
    u_prev: np.ndarray,
    gamma: float,
    tau_m: float,
) -> np.ndarray:
    """Known part of the fast Caputo derivative at the next level.

    Returns r = (a_mm u^{m-1} - sum_j w_j e^{-s_j tau_m} W_j^{m-1}) / Gamma(1-gamma)
    so that the discrete fast Caputo of the unknown u^m is
    a_mm u^m / Gamma(1-gamma) - r, and scheme assembly only adds the a_mm term.
    """
    u_prev = np.asarray(u_prev, dtype=float)
    if u_prev.shape[0] != h.W.shape[1]:
        raise ValueError("u_prev length does not match the history width")
    s, w = h.soe.nodes, h.soe.weights
    hist_term = (w * np.exp(-s * tau_m)) @ h.W
    return (a_mm * u_prev - hist_term) / math.exp(gammaln(1.0 - gamma))
