"""Sum-of-exponentials compression of t^{-gamma} and fast history recurrences.

The kernel is written through the Gamma-function integral representation

    t^{-gamma} = (1/Gamma(gamma)) * int_0^inf e^{-t s} s^{gamma-1} ds

and the integral is discretized on a uniform lattice in u = ln s (midpoint
rule).  The SOE meets a tolerance epsilon that is either absolute, an
allowed error tol(t) = epsilon on [delta, T], or relative, tol(t) =
epsilon t^{-gamma}, which is what a FIDS run asks for (McLean, "Exponential
sum approximations for t^{-beta}", 2018, bounds the lattice's relative
error; Jiang, Zhang, Zhang & Zhang, Commun. Comput. Phys. 21, 2017, give the
absolute form).  That one target sets the lattice: its step comes from the
relative aliasing error at tol(delta) delta^gamma / 4, the tightest relative
target on [delta, T] (epsilon delta^gamma absolute, epsilon relative).  The
infinite left tail of the lattice (s below a threshold where e^{-st} is
indistinguishable from its first-order expansion on [0, T]) is collapsed
into a single moment-matched node: the tail's weight and first moment have
closed geometric-series forms, and replacing the tail by (sum w_j)
e^{-s_bar t} with s_bar the weighted mean node costs at most
(T^2/2) * tail_mass * s_max^2, which is budgeted inside tol(T), the smallest
allowed error on [delta, T].  On the right the lattice stops once its terms
at delta fall below tol(delta)/32.  The resulting nodes/weights are strictly
positive, and the construction accepts a set only when

    |t^{-gamma} - sum_j w_j e^{-s_j t}| <= max(tol(t), 4 ulp of t^{-gamma})

at 4096 log-spaced points of [delta, T], refining the step until a set
passes or the smallest candidate exceeds the node cap.  That is a check at
points, not a bound on the interval.  Where tol(t) is at least 8 ulp of
t^{-gamma}, as in the benchmark regimes, the tests find the error under
tol(t) on 20 000 points as well.  Below that the error is the rounding of
the sum, which between the 4096 points has reached 4.7 ulp of t^{-gamma}
(gamma 0.95, absolute epsilon 1e-9, delta 4096^-3, on 20 000 points); the
tests hold such sets to 8 ulp.  A relative epsilon below 4 ulp could only
be met by that rounding, so the build refuses it.

Before that one validation, the lattice's low-frequency block, the nodes
below REDUCE_BELOW / T, is compressed by time-limited balanced truncation
(Moore, IEEE TAC 26, 1981; Gawronski & Juang, Int. J. Systems Sci. 21,
1990).  The block is the symmetric system x' = -diag(s) x + sqrt(w) v,
y = sqrt(w)^T x, whose two Gramians on [delta, T] coincide:

    G_ij = sqrt(w_i w_j) (e^{-(s_i+s_j) delta} - e^{-(s_i+s_j) T}) / (s_i+s_j).

With G = U diag(lambda) U^T (lambda descending), the block keeps the
fewest k leading directions whose L2 tail on [delta, T],
sqrt(sum_{i>=k} lambda_i (u_i^T sqrt(w))^2), is at most TAIL_FRACTION *
tol(T); the reduced operator U_k^T diag(s) U_k = Z diag(sigma) Z^T gives
the new nodes sigma, positive and below REDUCE_BELOW / T by interlacing, and
the new weights (Z^T U_k^T sqrt(w))^2.  The reduced set replaces the lattice
when it passes the validation; otherwise the lattice itself is validated.
The nodes above the block stay: near t = delta the kernel reaches
delta^{-gamma}, an absolute epsilon is then within a few ulp of it, and
truncating the whole lattice the same way passed the validation at no k
below the lattice count on six configurations tried; for a relative epsilon
a t^{2 gamma}-weighted Gramian of the whole lattice reached 1.4e-7 relative
only at 74 of 75 nodes (gamma 0.8), too ill-conditioned to truncate.

History evaluation: with Delta u^k = u^k - u^{k-1}, the per-exponential
accumulators

    W_j^m = sum_{k<=m} (Delta u^k / tau_k) * int_{t_{k-1}}^{t_k} e^{-s_j (t_m - s)} ds

obey the one-step recurrence W_j^m = e^{-s_j tau_m} W_j^{m-1}
+ (Delta u^m / tau_m) (1 - e^{-s_j tau_m}) / s_j, so each time step costs
O(N_exp * N_spatial) independent of the step index.  At level m,
``history_sum`` reads S_m = sum_j w_j e^{-s_j tau_m} W_j^{m-1}, the SOE's
estimate of the L1 history sum_{k<m} a_k Delta u^k; the newest weight a_m
and Gamma(1-gamma) are the L1 formula's, owned by ``mesh``.  Both schemes
add shift_m u^{m-1} - S_m / Gamma(1-gamma) to the level's right-hand side,
DIDS with the exact S_m and FIDS with this estimate.

Level m reads e^{-s_j tau_m} W_j^{m-1}, the kernel at arguments in
[tau_m, t_m], and W^0 = 0; so the FIDS scheme builds its SOE on
[tau_2, T] (``scheme.soe_interval``), tau_2 = (2^r - 1) tau_1 on the graded
mesh, and not on [tau_1, T].  It builds it to a relative epsilon
(``scheme.run_soe``): near t = delta the history integrates the kernel over
steps of length about delta, so a relative error epsilon t^{-gamma} there
costs about epsilon delta^{1-gamma} |u'|, and an absolute epsilon would set
the lattice step for a relative epsilon delta^gamma, 1.5e-15 at
epsilon 1e-9 and delta 5.2e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dger
from scipy.special import gammaln

# most exponentials an SOE may take, counted after the reduction; a
# tolerance that needs more fails
NODE_CAP = 256
# The reduced block is the lattice's nodes below REDUCE_BELOW / T, and its
# truncation's L2 tail on [delta, T] is held to TAIL_FRACTION * epsilon.
# Returned nodes by (s_c T, fraction), T = 1 and delta = M^-r; a "+" marks
# a reduced set that failed the validation, so the lattice was validated
# too and returned.  Columns (gamma, eps, M, r): a (0.5, 1e-9, 3326, 2),
# b (0.8, 1e-9, 512, 3), c1-c3 (0.5, 1e-10, 256, r), d1-d3 (0.8, 1e-9,
# 256, r), f (0.9, 1e-10, 4096, 3), g (0.5, 1e-10, 64, 1), h (0.95, 1e-10,
# 2^16, 3):
#                 a    b   c1   c2   c3   d1   d2   d3    f    g    h
#   lattice      96  128   58   82  109   53   82  114  196   53  283
#   10, 0.1      65   91   28   48   72   28   52   80  147   23  225
#   10, 0.01     65   92   28   49   72   28   52   80  147   24  225
#   100, 1       96+  87   58+  46   69   26   82+ 114+ 196+  53+ cap
#   100, 0.1     63   87   27   46   69   26   49   76  141   53+ 217
#   100, 0.01    63   88   27   47   70   27   50   77  141   23  217
#   100, 0.001   64   89   28   47   70   27   50   78  142   23  218
#   1000, 0.01   62   85   58+  46   68   53+  48   75  137   53+ 211
#   1000, 0.001  63   87   58+  47   70   28   49   76  138   53+ 212
# Of the rows that never fall back, (100, 0.01) has the fewest nodes on a
# and b.
REDUCE_BELOW = 100.0
TAIL_FRACTION = 0.01
# rows of exp(-t s) formed at once by SoeApproximation.evaluate: a 4096-point
# validation grid at 100-200 nodes would otherwise take 3-7 MB in one piece
_EVAL_ROWS = 256
# log-spaced points of [delta, T] at which _validate checks a candidate
_VALIDATION_POINTS = 4096
# the rounding of the evaluated sum that _validate allows, in ulp of
# t^{-gamma}; a relative epsilon below it cannot be met
_ROUNDING_ULPS = 4.0
_ULP = float(np.finfo(float).eps)


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
    relative: bool = False  # epsilon bounds the error over t^{-gamma}

    def tolerance(self, t):
        """The absolute error allowed at t: epsilon, or epsilon t^{-gamma}
        when the tolerance is relative."""
        return self.epsilon * t ** -self.gamma if self.relative else self.epsilon

    def describe(self) -> str:
        """The target, for error messages: an absolute one is the plain
        tolerance."""
        kind = "relative " if self.relative else ""
        return (f"{kind}tolerance {self.epsilon:g} on [{self.delta:g}, {self.T:g}] "
                f"at gamma={self.gamma:g}")

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
    W: np.ndarray  # shape (N_exp, N_spatial)

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


def _build_lattice(target: SoeApproximation, h: float):
    gamma, delta, T = target.gamma, target.delta, target.T
    lg = gammaln(gamma)
    inv_g = math.exp(-lg)
    # collapse the lattice below s = a into one moment-matched node; the
    # replacement error is <= (T^2/2) * mass(a) * a^2 with
    # mass(a) = a^gamma/(gamma Gamma(gamma)), budgeted at an eighth of the
    # tolerance at T, the smallest on [delta, T]
    a = ((target.tolerance(T) * gamma * math.exp(lg) / (4.0 * T * T))
         ** (1.0 / (gamma + 2.0)))
    j0 = math.floor(math.log(a) / h - 0.5)
    u0 = (j0 + 0.5) * h
    # geometric tail sums of weight and first moment over u_j <= u0
    m0 = h * inv_g * math.exp(gamma * u0) / -math.expm1(-gamma * h)
    m1 = h * inv_g * math.exp((gamma + 1.0) * u0) / -math.expm1(-(gamma + 1.0) * h)
    nodes, weights = [m1 / m0], [m0]
    j = j0 + 1
    while True:
        u = (j + 0.5) * h
        s = math.exp(u)
        w = h * math.exp(gamma * u) * inv_g
        nodes.append(s)
        weights.append(w)
        if (s * delta > gamma + 1.0
                and w * math.exp(-min(s * delta, 700.0)) < target.tolerance(delta) / 32.0):
            break
        j += 1
        if len(nodes) > 100_000:
            raise SoeConstructionError(
                f"right tail of the lattice does not terminate: {target.describe()}")
    return np.array(nodes), np.array(weights)


def _reduce(soe: SoeApproximation) -> SoeApproximation | None:
    """The lattice with its nodes below REDUCE_BELOW / T compressed by
    time-limited balanced truncation, or None when no truncation of the
    block meets the tail rule."""
    low = soe.nodes < REDUCE_BELOW / soe.T
    n = int(np.count_nonzero(low))
    if n < 2:
        return None
    s, sqrt_w = soe.nodes[low], np.sqrt(soe.weights[low])
    sigma = s[:, None] + s
    gram = (np.exp(-sigma * soe.delta) * -np.expm1(-sigma * (soe.T - soe.delta))
            / sigma * sqrt_w[:, None] * sqrt_w)
    lam, U = np.linalg.eigh(gram)  # ascending
    c = U.T @ sqrt_w
    # tail[j]: the squared L2 tail when the n-1-j leading directions stay;
    # round-off leaves lambda near -1e-16 * lambda_max, so tail is not monotone
    tail = np.cumsum(lam * c * c)[:-1]
    fits = np.flatnonzero(tail <= (TAIL_FRACTION * soe.tolerance(soe.T)) ** 2)
    if fits.size == 0:
        return None
    k = n - 1 - int(fits[-1])
    keep = U[:, n - k:]
    nodes, Z = np.linalg.eigh(keep.T @ (s[:, None] * keep))
    weights = (Z.T @ c[n - k:]) ** 2
    return replace(soe, nodes=np.concatenate((nodes, soe.nodes[~low])),
                   weights=np.concatenate((weights, soe.weights[~low])))


def _validate(soe: SoeApproximation) -> bool:
    t = np.logspace(math.log10(soe.delta), math.log10(soe.T), _VALIDATION_POINTS)
    kernel = t ** (-soe.gamma)
    err = np.abs(kernel - soe.evaluate(t))
    # allow the evaluation's own round-off floor (a few ulp of t^{-gamma})
    return bool(np.all(err <= np.maximum(soe.tolerance(t), _ROUNDING_ULPS * _ULP * kernel)))


def build_soe(
    gamma: float,
    epsilon: float,
    delta: float,
    T: float,
    relative: bool = False,
) -> SoeApproximation:
    """Compress t^{-gamma} on [delta, T] to tolerance epsilon: absolute,
    |t^{-gamma} - SOE(t)| <= epsilon, or with ``relative`` set
    |t^{-gamma} - SOE(t)| <= epsilon t^{-gamma}, the target a FIDS run asks
    for.

    Returns the reduced lattice when it passes the validation, else the
    lattice when it fits under the cap and passes, else tries a finer
    lattice.  An epsilon that the sum 0 meets, tol(delta) >= delta^{-gamma}
    (a relative epsilon of 1 or more, an absolute one of delta^{-gamma} or
    more), raises ValueError.  Raises SoeConstructionError, naming the
    tolerance, its kind, [delta, T] and gamma: for a relative epsilon below
    the sum's rounding, 4 ulp; once the smaller of the two candidates has
    more than ``NODE_CAP`` nodes; or when no lattice passes.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    # NaN fails both tests
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    if not math.isfinite(T):
        raise ValueError(f"final time T must be finite, got {T}")
    if not 0.0 < delta < T:
        raise SoeConstructionError(
            f"cutoff must satisfy 0 < delta < T, got delta={delta}, T={T}"
        )
    target = SoeApproximation(gamma=float(gamma), epsilon=float(epsilon),
                              delta=float(delta), T=float(T), nodes=np.empty(0),
                              weights=np.empty(0), relative=bool(relative))
    # t^{-gamma} is largest at delta, so a tolerance the sum 0 meets there
    # it meets on all of [delta, T]
    bound = delta ** -gamma
    if target.tolerance(delta) >= bound:
        raise ValueError(
            f"a relative epsilon must be < 1, got {epsilon}" if relative else
            f"an absolute epsilon must be < delta^-gamma = {bound:g}, got "
            f"epsilon={epsilon} at delta={delta}, gamma={gamma}")
    if relative and epsilon < _ROUNDING_ULPS * _ULP:
        raise SoeConstructionError(
            f"{target.describe()} cannot be met: summing the exponentials "
            f"rounds to {_ROUNDING_ULPS:g} ulp, {_ROUNDING_ULPS * _ULP:.3g}")

    # the relative target is tightest at t = delta: epsilon delta^gamma
    # for an absolute epsilon, epsilon itself for a relative one
    h = _lattice_step(gamma, target.tolerance(delta) * delta ** gamma / 4.0)
    for _ in range(6):
        s, w = _build_lattice(target, h)
        lattice = replace(target, nodes=s, weights=w)
        reduced = _reduce(lattice)
        # the reduction only removes nodes, so it is the smaller candidate
        smallest = lattice if reduced is None else reduced
        if smallest.n_exp > NODE_CAP:
            raise SoeConstructionError(
                f"{target.describe()} needs {smallest.n_exp} exponentials, "
                f"cap is {NODE_CAP}"
            )
        if reduced is not None and _validate(reduced):
            return reduced
        if s.size <= NODE_CAP and _validate(lattice):
            return lattice
        h *= 0.85
    raise SoeConstructionError(f"validation failed to reach the {target.describe()}")


def history_push(h: FastHistory, delta_u: np.ndarray, tau_m: float) -> FastHistory:
    """Advance the accumulators by one step: delta_u = u^m - u^{m-1}, of
    shape (N_spatial,), else ValueError naming both shapes.

    W_j <- e^{-s_j tau_m} W_j + (delta_u / tau_m) (1 - e^{-s_j tau_m}) / s_j.
    Cost O(N_exp * N_spatial); mutates and returns h.
    """
    delta_u = np.asarray(delta_u, dtype=float)
    # one value per spatial column: a column (n, 1) or a matrix (n, k) is no
    # increment of the accumulators
    if delta_u.shape != (h.W.shape[1],):
        raise ValueError(f"delta_u must have shape ({h.W.shape[1]},), the history "
                         f"width, got shape {delta_u.shape}")
    # NaN fails the test
    if not 0.0 < tau_m < math.inf:
        raise ValueError(f"tau_m must be finite and > 0, got {tau_m}")
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


def history_sum(h: FastHistory, tau_m: float) -> np.ndarray:
    """S_m = sum_j w_j e^{-s_j tau_m} W_j^{m-1}, with h holding W^{m-1}:
    the SOE's estimate of the L1 history sum_{k<m} a_k Delta u^k at a level
    of step tau_m.  Cost O(N_exp * N_spatial)."""
    # NaN fails the test
    if not 0.0 < tau_m < math.inf:
        raise ValueError(f"tau_m must be finite and > 0, got {tau_m}")
    s, w = h.soe.nodes, h.soe.weights
    return (w * np.exp(-s * tau_m)) @ h.W
