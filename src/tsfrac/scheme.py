"""DIDS and FIDS time-stepping drivers.

Each time level m solves the dense-but-structured linear system

    (shift_m I + K^m A) u^m = rhs_m,
    shift_m = a^{(m)}_m / Gamma(1-gamma),
    K^m     = diag(kappa(x_i, t_m)),

where A is the fractional-Laplacian Toeplitz matrix.  One driver runs both
schemes, with one grid evaluator for kappa, source, the initial value and
the exact solution, one history array and one pair of error norms; they
differ only in its history strategy, which gives the history sum
S_m = sum_{k<m} a_k (u^k - u^{k-1}) of level m: ``history(m, tau_m)``
returns S_m / Gamma(1-gamma).  DIDS sums it exactly over the full solution
history with the L1 weights (O(m) per level); FIDS evaluates it through the
sum-of-exponentials recurrence (O(N_exp) per level), on the SOE that
``run_soe`` builds to a relative tolerance.  The run alone adds the known
part of a level, shift_m u^{m-1} - S_m / Gamma(1-gamma), to its right-hand
side; the newest weight a^{(m)}_m = tau_m^{-gamma}/(1-gamma) enters only
through shift_m.  Each strategy states its per-level cost model once, when
it is built, as ``level_ops``, which the report carries.  The run walks the
mesh's levels in blocks (``GradedMesh.blocks``): each level's time t_m and
step tau_m come from one evaluation per block, and the step goes to the
shift and to the history strategy, so nothing of length M is stored.  The
L1 constants are ``mesh``'s: the run takes Gamma(1-gamma) from
``gamma_factor`` once, and each level's shift_m from ``level_shift``.

DIDS sums its history in blocks of HISTORY_BLOCK levels: when a block
starts, the part of its levels' sums over the rows older than the block is
one gemm, its L1 weights formed in panels of WEIGHT_PANEL rows; each level
adds its row of the product and a short gemv over the block's own rows
(the far/near split of Hairer, Lubich & Schlichte, SIAM J. Sci. Stat.
Comput. 6, 1985).  On a graded mesh the weights are not Toeplitz, so the
far part is a gemm and not an FFT.

Solver dispatch: the level solve is a per-run strategy too, built once from
``select_solver``'s tag (auto is direct when the order N-1 is at most the
direct threshold, else pkrylov).  ``_DirectLevels`` solves the scaled system

    (A + diag(shift_m / kappa)) u^m = rhs_m / kappa,

symmetric positive definite because A is a symmetric M-matrix, by Cholesky
in ``solve_dense``, holding A as a read-only view of its 2N-3 values and one
work matrix, allocated by the first Cholesky level, that each level refills
and factors in place.  When kappa_2 / kappa_1 is constant on the grid, at
least EIGEN_MIN_LEVELS levels remain and N-1 is at least EIGEN_MIN_ORDER,
it builds once B = K^{1/2} A K^{1/2} = Q Lambda Q^T, K = diag(kappa_1),
and each later level with kappa_m = c_m kappa_1 solves
u^m = K^{1/2} Q (shift_m + c_m Lambda)^{-1} Q^T K^{-1/2} rhs_m by two gemvs
(fast diagonalization, Lynch, Rice & Thomas, Numer. Math. 6, 1964), then
one refinement step with the residual from the direct Toeplitz sum; a level
that fails the test takes Cholesky.  ``_KrylovLevels`` holds the Toeplitz
operator of A, and for pkrylov the Strang eigenvalues, and runs BiCGSTAB,
circulant-preconditioned for pkrylov, or CG at a level whose kappa is
constant on the grid, where shift_m I + kappa A is symmetric positive
definite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, Optional

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.blas import daxpy

from . import toeplitz
from .ifl import IflDiscretization, build_ifl, splitting_parameter
from .krylov import solve_bicgstab, solve_cg, solve_dense
from .mesh import GradedMesh, build_mesh, gamma_factor, l1_weights, level_shift
from .soe import FastHistory, SoeApproximation, build_soe, history_push, history_sum
from .toeplitz import (build_preconditioner, build_toeplitz, strang_eigenvalues,
                       symmetric_toeplitz)

# Largest N-1 handled by the dense direct path.  Measured end to end, FIDS
# on example2 (alpha 1.9, gamma 0.5, r 2, mu 1.95, eps 1e-9), one BLAS
# thread, min of 3 interleaved runs, direct / pkrylov in s, at M = 600:
#   N-1 = 320: 0.576 / 0.776    352: 0.714 / 1.056    360: 0.765 / 1.115
#   N-1 = 384: 0.742 / 0.850    400: 0.895 / 0.840    420: 1.052 / 0.875
#   N-1 = 431: 1.005 / 1.581    440: 1.182 / 1.016
# At M = 300 and every N-1 in [352, 440], the direct path wins at 76 of 89
# orders, all up to 391, and the summed time is least with the switch at
# 439-440.  Above DENSE_CROSSOVER the Krylov kernels are real FFTs, whose
# cost follows the factors of N-1; so does the winner above 440: N = 442:
# 0.871 / 0.687, 456: 1.079 / 0.639, 512: 1.301 / 0.916, but 448: 1.189 /
# 1.159 and 464 (N-1 prime): 1.037 / 1.303.
DIRECT_THRESHOLD = 440
# Largest N-1 the direct path accepts: its work matrix takes 8 (N-1)^2 bytes.
DENSE_SOLVE_CAP = 2048
# Most values a full (M+1) x (N-1) history may hold: 2^26 values, 512 MiB,
# about 20x the largest in the test suite (M = 12854, N = 256: 3.3 M values).
HISTORY_CAP = 2 ** 26
# Levels per block of the DIDS history sum (B), and history rows per weight
# panel of its gemm (P).  Measured on DIDS, example1 (alpha 1.5, gamma 0.5),
# M = 4096, r 2, N 128, one BLAS thread, min and median of 3 interleaved
# runs in s, with the run's tracemalloc peak in MB (4.60 before blocking):
#   B = 16: P = 64 0.777 / 0.816, 4.487   128 0.716 / 0.725, 4.508
#           P = 256 0.702 / 0.729, 4.590
#   B = 32: P = 64 0.669 / 0.722, 4.530   128 0.654 / 0.700, 4.613
#           P = 256 0.639 / 0.653, 4.776
#   B = 64: P = 64 0.659 / 0.705, 4.673   128 0.618 / 0.624, 4.834
#           P = 256 0.577 / 0.623, 5.161
# A weight panel takes 8 B P bytes, times the few temporaries of its closed
# form, and the far part 8 B n, so larger B and P buy a few percent of time
# with several percent of memory.
HISTORY_BLOCK = 32
WEIGHT_PANEL = 128
# Fewest levels, counting level 2, for which a separable kappa builds the
# eigenbasis.  Its one eigh by LAPACK's syev, which writes Q over its input,
# costs about 110 Cholesky levels for n from 440 to 2047 (n = 1023: 2.21 s
# against 20.3 ms; n = 2047: 13.2 s against 113 ms).  Whole DIDS runs on
# example1 (alpha 1.5, gamma 0.5, r 2), one BLAS thread, min of 3
# interleaved runs, Cholesky / eigenbasis in ms:
#   n = 127: M = 96 18.9 / 20.1   128 24.8 / 24.9   192 44.2 / 39.0   256 55.4 / 41.3
#   n = 255: M = 64 35.2 / 48.8   128 54.0 / 45.2   256 149 / 92.3
#   n = 440: M = 96 199 / 251     128 189 / 183     256 481 / 280
# Fewest unknowns N-1 for which it builds the eigenbasis.  Below it a level
# costs its dozen numpy calls either way, and the refined eigen level makes
# more of them.  Whole runs as above, in another session, min of 5 (of 9
# for n = 63, 71, 79):
#   n = 15: M = 256 11.1 / 13.4   1024 51.2 / 63.3
#   n = 31: M = 256 12.1 / 14.2   1024 54.9 / 63.6
#   n = 47: M = 256 13.9 / 14.9   1024 65.0 / 66.5
#   n = 63: M = 256 15.1 / 18.6   1024 69.7 / 64.2
#   n = 71: M = 256 15.5 / 15.6   1024 77.5 / 70.6
#   n = 79: M = 256 19.3 / 17.6   1024 78.4 / 69.2
#   n = 95: M = 256 19.4 / 17.9   1024 89.3 / 77.3
#   n = 127: M = 256 26.2 / 21.2  1024 114 / 82.6
# 79 is the smallest order at which the eigenbasis won at both M in every
# repeat of the scan.
EIGEN_MIN_LEVELS = 128
EIGEN_MIN_ORDER = 79
SOLVERS = ("auto", "direct", "krylov", "pkrylov")


@dataclass(frozen=True)
class ProblemSpec:
    """Model problem on Omega = (-l, l) x (0, T] with zero exterior data."""

    gamma: float
    alpha: float
    l: float
    T: float
    # each returns one value per grid point, or a scalar broadcast to the grid
    kappa: Callable          # (x, t) -> diffusivity > 0
    source: Callable         # (x, t) -> f
    initial: Callable        # x -> u(x, 0)
    exact: Optional[Callable] = None  # (x, t) -> u, when known


@dataclass(frozen=True)
class SolverOptions:
    solver: str = "auto"     # auto | direct | krylov | pkrylov
    tol: float = 1e-10

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {', '.join(SOLVERS)}, "
                             f"got {self.solver!r}")
        # a tol of 0, NaN or below is never met (BiCGSTAB runs to a
        # breakdown); one of 1 or more accepts the zero initial guess
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tol must be finite and lie in (0, 1), got {self.tol}")


@dataclass
class SolveReport:
    err_inf: Optional[float]
    err_2: Optional[float]
    avg_iterations: float
    wall_time: float
    # one nominal count per level, m = 1..M, of the history values the level's
    # history term weighs, not measured flops: m (N-1) for DIDS's L1 sum;
    # N_exp (N-1), the size of W, for FIDS, whose level reads W once in
    # history_sum and updates it twice in history_push.  FIDS's array is a
    # read-only view of one value
    history_ops: np.ndarray
    history_memory_values: int   # floats held for the history term


def select_solver(N: int, options: SolverOptions = SolverOptions()) -> str:
    """direct below the dense threshold unless overridden, else precond-krylov."""
    if options.solver != "auto":
        return options.solver
    return "direct" if N - 1 <= DIRECT_THRESHOLD else "pkrylov"


def soe_interval(mesh: GradedMesh) -> tuple[float, float]:
    """[delta, T], the interval the FIDS SOE must cover on ``mesh``, M >= 2.

    Level m applies e^{-s tau_m} to W^{m-1}, which holds the kernel at
    arguments in [tau_m, t_m]; W^0 = 0, so level 1 evaluates none.  delta is
    the shortest step after the first, tau_2 on a graded mesh (r >= 1, whose
    steps never shrink): (2^r - 1) times the first step tau_1.  As evaluated,
    steps that are equal in exact arithmetic differ in the last bits, so
    delta is the least of tau_2..tau_M, taken block by block."""
    if mesh.M < 2:
        raise ValueError(f"the SOE interval [tau_2, T] needs M >= 2, got M = {mesh.M}")
    delta = min(tau.min() for _, _, tau in mesh.blocks(first=2))
    return float(delta), float(mesh.times(mesh.M))


def run_soe(gamma: float, epsilon: float, mesh: GradedMesh) -> SoeApproximation:
    """The SOE a FIDS run on ``mesh`` uses: t^{-gamma} to the relative
    tolerance ``epsilon`` on ``soe_interval(mesh)``."""
    return build_soe(gamma, epsilon, *soe_interval(mesh), relative=True)


def _uniform(v: np.ndarray) -> bool:
    """Whether a positive vector is constant on the grid: a relative spread
    of at most 1e-12."""
    hi = float(v.max())
    return hi - float(v.min()) <= 1e-12 * hi


class _DirectLevels:
    """Direct levels: Cholesky on a work matrix refilled in place, or, once
    the diffusivity shows the form kappa_m = c_m kappa_1, one eigenbasis of
    K^{1/2} A K^{1/2} (K = diag(kappa_1)) that each such level solves in."""

    def __init__(self, disc: IflDiscretization, M: int):
        n = disc.N - 1
        if n > DENSE_SOLVE_CAP:
            raise ValueError(
                f"the direct solver is capped at N-1 = {DENSE_SOLVE_CAP}, "
                f"got N-1 = {n}: its {n}x{n} matrix would take "
                f"{8 * n * n} bytes")
        self.A = symmetric_toeplitz(disc.first_col)  # read-only, 2n-1 values
        # A u = the middle n values of kernel * u, a direct sum
        self.kernel = np.concatenate((disc.first_col[:0:-1], disc.first_col))
        # a short run or a small system never makes up for eigh
        self.may_build = M - 1 >= EIGEN_MIN_LEVELS and n >= EIGEN_MIN_ORDER
        self._work = None     # n x n, allocated by the first Cholesky level
        self.kappa1 = None    # kept at level 1 when a basis may be built
        self.basis = None     # (sqrt(kappa_1), Lambda, Q) once built

    def solve(self, shift: float, kappa: np.ndarray, rhs: np.ndarray,
              m: int, t: float) -> tuple[np.ndarray, int]:
        """u with (shift*I + diag(kappa) A) u = rhs, and 0 iterations."""
        if m == 1 and self.may_build:
            self.kappa1 = kappa
        # the basis is decided once, at level 2: the ratio is read only where
        # a basis exists or may be built
        elif self.basis is not None or (m == 2 and self.may_build):
            c = kappa / self.kappa1
            # a non-separable kappa never pays for eigh
            if _uniform(c):
                if self.basis is None:
                    self._build_basis()
                return self._eigen_solve(shift, float(c.mean()), kappa, rhs), 0
        return self._cholesky_solve(shift, kappa, rhs), 0

    def _work_matrix(self) -> np.ndarray:
        if self._work is None:
            n = self.A.shape[0]
            self._work = np.empty((n, n), order="F")
        # A fills the work matrix through the C-ordered transpose, the
        # faster way to copy the symmetric view
        np.copyto(self._work.T, self.A)
        return self._work

    def _cholesky_solve(self, shift, kappa, rhs):
        # K^{-1}(shift*I + K A) = A + diag(shift/kappa) is SPD: A is a symmetric
        # M-matrix and shift/kappa > 0
        work = self._work_matrix()
        work.reshape(-1, order="F")[:: work.shape[0] + 1] += shift / kappa
        return solve_dense(work, rhs / kappa)

    def _build_basis(self):
        # B = K^{1/2} A K^{1/2} = Q Lambda Q^T, scaled in the work matrix;
        # syev writes Q over B, so Q takes the work matrix's memory and a
        # later Cholesky level allocates a fresh one
        s = np.sqrt(self.kappa1)
        work = self._work_matrix()
        work *= s
        work *= s[:, None]
        lam, Q = eigh(work, overwrite_a=True, check_finite=False, driver="ev")
        self._work = None
        self.basis = (s, lam, Q)

    def _eigen_solve(self, shift, c, kappa, rhs):
        # shift*I + c K A = K^{1/2} (shift*I + c B) K^{-1/2}, so
        # u = K^{1/2} Q (shift + c Lambda)^{-1} Q^T K^{-1/2} rhs.  That solve
        # is only normwise stable, its error growing with the level matrix's
        # condition (2e-11 relative at n = 440, alpha 1.9, gamma 0.2, where
        # Cholesky on the diagonally dominant M-matrix keeps 1e-13); one step
        # of refinement, its residual from the direct Toeplitz sum, brings
        # it under 1e-12 of Cholesky
        s, lam, Q = self.basis
        d = shift + c * lam

        def inverse(b):
            v = Q.T @ (b / s)
            v /= d
            u = Q @ v
            u *= s
            return u

        u = inverse(rhs)
        residual = rhs - shift * u
        residual -= kappa * np.convolve(self.kernel, u, "valid")
        u += inverse(residual)
        return u


class _KrylovLevels:
    """Krylov levels on the run's Toeplitz operator; pkrylov preconditions."""

    def __init__(self, disc: IflDiscretization, tag: str, tol: float):
        self.op = build_toeplitz(disc.first_col)
        self.tag = tag
        self.tol = tol
        # the eigenvalues lam of s(A) depend on A alone: one transform per run
        self.lam = strang_eigenvalues(disc.first_col) if tag == "pkrylov" else None

    def solve(self, shift: float, kappa: np.ndarray, rhs: np.ndarray,
              m: int, t: float) -> tuple[np.ndarray, int]:
        """u with (shift*I + diag(kappa) A) u = rhs, and the iteration count."""
        # a kappa constant on the grid leaves shift*I + kappa*A symmetric
        method, solver = (("CG", solve_cg) if _uniform(kappa)
                          else ("BiCGSTAB", solve_bicgstab))
        # both applies are looked up on the module once per level, so a
        # wrapper set there sees every call
        matvec, op = toeplitz.toeplitz_matvec, self.op

        def apply(v):
            # shift*v + kappa*(A v), written into the matvec's fresh output
            out = matvec(op, v)
            out *= kappa
            return daxpy(v, out, a=shift)

        precond = None
        if self.lam is not None:
            precond = partial(toeplitz.precond_solve, build_preconditioner(
                self.lam, shift, float(kappa.mean())))
        u, report = solver(apply, precond, rhs, tol=self.tol)
        if not report.converged:
            raise RuntimeError(
                f"{method} ({self.tag}) "
                f"did not converge at level m={m}, t_m={t:.6g}: "
                f"{report.iterations} iterations, final relative residual "
                f"{report.final_relative_residual:.3e} (tol {self.tol:g}), "
                f"breakdown: {report.breakdown or 'none'}"
            )
        return u, report.iterations


def _on_grid(name: str, value, x: np.ndarray, m: int, t: float,
             positive: bool = False) -> np.ndarray:
    """What ``name`` returned at level m as a fresh float array on the grid
    (the run adds to it in place and may keep it): a scalar is broadcast, and
    another shape, a non-finite value or, with ``positive``, one that is not
    > 0 fails, naming the level and the point."""
    v = np.array(value, dtype=float)
    if v.shape != x.shape:
        if v.ndim:
            raise ValueError(
                f"{name} must return a scalar or one value per grid point: at "
                f"level m={m}, t={t}, it returned shape {v.shape} on a grid of "
                f"shape {x.shape}")
        v = np.full(x.shape, v)
    # NaN fails both tests
    ok = (v > 0.0) & (v < math.inf) if positive else np.isfinite(v)
    if not ok.all():
        bad = np.flatnonzero(~ok)[0]
        raise ValueError(
            f"{name} must be {'positive and finite' if positive else 'finite'} "
            f"on the grid: at level m={m}, t={t}, {name}(x={x[bad]}) = {v[bad]}")
    return v


def _error_norms(exact: np.ndarray, u: np.ndarray, h: float) -> tuple[float, float]:
    """(max norm, discrete L2 norm) of the error on grid spacing h, formed
    in place in ``exact``, a fresh array that nothing else reads."""
    exact -= u
    return np.max(np.abs(exact)), math.sqrt(h) * np.linalg.norm(exact)


class _L1Sum:
    """DIDS history: the L1 sum over the run's history u^0..u^M, O(m) per level.

    The levels run in blocks of HISTORY_BLOCK.  When a block starts at level
    m0, the part of its levels' sums over rows 0..m0-1 is one gemm, formed
    WEIGHT_PANEL rows at a time; each level then adds its row of that product
    and a gemv over the block's rows before it."""

    def __init__(self, gamma: float, g1mg: float, mesh: GradedMesh,
                 hist: np.ndarray):
        self.gamma = gamma
        self.mesh = mesh
        self.g1mg = g1mg
        self.hist = hist
        self.memory_values = hist.size
        self.level_ops = np.arange(1, mesh.M + 1, dtype=np.int64) * hist.shape[1]
        self.m0 = 0
        self.far = self.near = None

    def _coefficients(self, levels: np.ndarray, j0: int, j1: int) -> np.ndarray:
        """Each level's history coefficients of rows j0..j1-1, over
        Gamma(1-gamma): a_j - a_{j+1} for u^j, with a_0 = 0 and the weights
        from the level's own interval on 0 (``l1_weights``)."""
        a = l1_weights(self.mesh, self.gamma, levels, max(j0 - 1, 0), j1)
        c = np.diff(a, prepend=0.0) if j0 == 0 else np.diff(a)
        # the differences are a_{j+1} - a_j
        c /= -self.g1mg
        return c

    def _start_block(self, m0: int):
        levels = np.arange(m0, min(m0 + HISTORY_BLOCK, self.mesh.M + 1))
        self.m0 = m0
        self.far = np.zeros((levels.size, self.hist.shape[1]))
        for j0 in range(0, m0, WEIGHT_PANEL):
            j1 = min(j0 + WEIGHT_PANEL, m0)
            self.far += self._coefficients(levels, j0, j1) @ self.hist[j0:j1]
        # level m0 + i reads the first i columns: rows m0 .. m0+i-1
        self.near = self._coefficients(levels, m0, m0 + levels.size - 1)

    def history(self, m: int, tau_m: float) -> np.ndarray:
        """S_m / Gamma(1-gamma), the exact history sum of level m; the step
        is not read."""
        if (m - 1) % HISTORY_BLOCK == 0:
            self._start_block(m)
        i = m - self.m0
        return self.far[i] + self.near[i, :i] @ self.hist[self.m0:m]

    def record(self, m: int, u: np.ndarray, tau_m: float):
        """Nothing to do: the run's history already holds u^m."""


class _SoeRecurrence:
    """FIDS history: the SOE recurrence, O(N_exp) per level; keeps u^{m-1}."""

    def __init__(self, soe: SoeApproximation, g1mg: float, M: int,
                 u0: np.ndarray):
        self.M = M
        self.g1mg = g1mg
        self.fast = FastHistory.fresh(soe, u0.size)
        self.memory_values = self.fast.W.size
        # the same count at every level: one read-only value, not M
        self.level_ops = np.broadcast_to(np.int64(self.memory_values), (M,))
        self.u_prev = u0

    def history(self, m: int, tau_m: float) -> np.ndarray:
        """S_m / Gamma(1-gamma), the SOE's history sum of level m, whose
        step is tau_m."""
        hist = history_sum(self.fast, tau_m)
        hist /= self.g1mg
        return hist

    def record(self, m: int, u: np.ndarray, tau_m: float):
        # no level reads W^M
        if m < self.M:
            history_push(self.fast, u - self.u_prev, tau_m)
            self.u_prev = u


def _run(spec: ProblemSpec, M: int, r: float, N: int, mu: Optional[float],
         options: SolverOptions, keep_history: bool,
         epsilon: Optional[float] = None) -> tuple[np.ndarray, SolveReport]:
    """Step levels 0..M: FIDS with an SOE to the relative tolerance
    ``epsilon`` when it is given, else DIDS.  Returns the (M+1, N-1)
    history when ``keep_history`` is set (always for DIDS, whose sum reads
    it), else the final level."""
    t0 = time.perf_counter()
    g1mg = gamma_factor(spec.gamma)
    if epsilon is not None and M < 2:
        raise ValueError(f"FIDS needs M >= 2, got M = {M}: the SOE interval "
                         f"[tau_2, T] is empty, as the SOE first evaluates the "
                         f"history at level 2")
    if keep_history and (M + 1) * (N - 1) > HISTORY_CAP:
        raise ValueError(
            f"the full history is capped at {HISTORY_CAP} values, got M = {M}, "
            f"N = {N}: its {M + 1}x{N - 1} array would take "
            f"{8 * (M + 1) * (N - 1)} bytes")
    mesh = build_mesh(M, r, spec.T)
    disc = build_ifl(spec.alpha, splitting_parameter(spec.alpha, mu), spec.l, N)
    x = disc.interior_points()
    if epsilon is not None:
        soe = run_soe(spec.gamma, epsilon, mesh)
    tag = select_solver(N, options)
    levels = (_DirectLevels(disc, M) if tag == "direct"
              else _KrylovLevels(disc, tag, options.tol))
    u = _on_grid("initial", spec.initial(x), x, 0, 0.0)

    hist = np.empty((M + 1, x.size)) if keep_history else None
    history = (_L1Sum(spec.gamma, g1mg, mesh, hist) if epsilon is None
               else _SoeRecurrence(soe, g1mg, M, u))
    err = np.zeros(2)   # np.maximum keeps a NaN error, where max() drops it
    its_total = 0
    # each level's time and step, from one evaluation per block of levels;
    # level 0 has no step
    steps = ((m0 + i, t[i + 1], tau[i])
             for m0, t, tau in mesh.blocks() for i in range(tau.size))
    for m, tm, tau_m in chain([(0, mesh.times(0), None)], steps):
        if m:
            kappa = _on_grid("kappa", spec.kappa(x, tm), x, m, tm, positive=True)
            rhs = _on_grid("source", spec.source(x, tm), x, m, tm)
            shift = level_shift(spec.gamma, tau_m, g1mg)
            # the known part, u still u^{m-1}
            rhs -= history.history(m, tau_m)
            rhs += shift * u
            u, its = levels.solve(shift, kappa, rhs, m, tm)
            its_total += its
            history.record(m, u, tau_m)
        if hist is not None:
            hist[m] = u
        if spec.exact is not None:
            err = np.maximum(err, _error_norms(
                _on_grid("exact", spec.exact(x, tm), x, m, tm), u, disc.h))

    err_inf, err_2 = (None, None) if spec.exact is None else map(float, err)
    return (u if hist is None else hist), SolveReport(
        err_inf=err_inf, err_2=err_2,
        avg_iterations=its_total / M, wall_time=time.perf_counter() - t0,
        history_ops=history.level_ops,
        history_memory_values=history.memory_values,
    )


def run_dids(
    spec: ProblemSpec,
    M: int,
    r: float,
    N: int,
    *,
    mu: Optional[float] = None,
    options: SolverOptions = SolverOptions(),
) -> tuple[np.ndarray, SolveReport]:
    """Direct implicit scheme; returns (history of shape (M+1, N-1), report).

    The history term at level m is the weighted sum of all previous levels
    with the L1 weights (O(m) work and storage per level), summed in blocks
    of HISTORY_BLOCK levels; the history it returns is capped at HISTORY_CAP
    values.
    """
    return _run(spec, M, r, N, mu, options, keep_history=True)


def run_fids(
    spec: ProblemSpec,
    M: int,
    r: float,
    N: int,
    *,
    epsilon: float = 1e-10,
    mu: Optional[float] = None,
    options: SolverOptions = SolverOptions(),
    keep_history: bool = True,
) -> tuple[np.ndarray, SolveReport]:
    """Fast implicit scheme with the SOE history recurrence.

    ``epsilon`` is a relative tolerance in (0, 1): the SOE (``run_soe``) keeps
    |t^{-gamma} - SOE(t)| <= epsilon t^{-gamma} on [tau_2, T]
    (``soe_interval``): level m reads the history at arguments in
    [tau_m, t_m], and no level reads it before level 2, so M must be at
    least 2 and the SOE need not cover the first step tau_1 =
    (1/M)^r T < tau_2.  With
    ``keep_history`` the full (M+1, N-1) history, capped at HISTORY_CAP
    values, is returned (the report's errors are tracked level by level
    either way); the memory-lean mode, not capped, returns only the final
    level, the scheme itself consuming just u^{m-1} and the exponential
    accumulators.
    """
    return _run(spec, M, r, N, mu, options, keep_history, epsilon)
