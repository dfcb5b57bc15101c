"""DIDS and FIDS time-stepping drivers.

Each time level m solves the dense-but-structured linear system

    (shift_m I + K^m A) u^m = rhs_m,
    shift_m = a^{(m)}_m / Gamma(1-gamma),
    K^m     = diag(kappa(x_i, t_m)),

where A is the fractional-Laplacian Toeplitz matrix.  Both schemes run the
same level loop and differ only in its history strategy: DIDS accumulates
the Caputo history term from the full solution history with the L1 weights
(O(m) per level); FIDS evaluates it through the sum-of-exponentials
recurrence (O(N_exp) per level).  The last weight a^{(m)}_m = tau_m^{-gamma}
/(1-gamma) is shared by both schemes and never goes through the SOE.

Solver dispatch: a dense direct solve when the system order N-1 is at most
the direct threshold, otherwise circulant-preconditioned BiCGSTAB.  A Krylov
level whose kappa is constant on the grid runs CG instead: shift_m I + kappa A
is then symmetric positive definite.  The direct path solves the
symmetrically scaled system

    (A + diag(shift_m / kappa)) u^m = rhs_m / kappa,

which is symmetric positive definite because A is a symmetric M-matrix, so
``solve_dense`` factors it by Cholesky.  A run holds A as a read-only view of
the 2N-3 values that define it, and one work matrix that each level refills
and factors in place.  The Krylov path applies A and the preconditioner
through ``toeplitz``, which picks dense BLAS or real-FFT kernels by order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import daxpy
from scipy.special import gammaln

from .ifl import IflDiscretization, build_ifl
from .krylov import solve_bicgstab, solve_cg, solve_dense
from .mesh import GradedMesh, _last_weight, build_mesh, l1_weights
from .soe import (FastHistory, SoeApproximation, build_soe, fast_caputo_rhs,
                  fast_coefficients, history_push)
from .toeplitz import ToeplitzOperator, build_preconditioner, build_toeplitz

# Largest N-1 handled by the dense direct path.  Measured end to end, FIDS
# on example2 (alpha 1.9, gamma 0.5, r 2, mu 1.95, eps 1e-9) at M = 600, one
# BLAS thread, min of 3 runs, direct / pkrylov in s:
#   N = 192: 0.189 / 0.347    208: 0.210 / 0.361    210: 0.221 / 0.411
#   N = 212: 0.255 / 0.382    224: 0.259 / 0.394    256: 0.295 / 0.464
#   N = 320: 0.492 / 0.743    384: 0.763 / 1.222    441: 0.976 / 1.660
# The direct path wins at every N-1 up to DENSE_CROSSOVER (440), where the
# Krylov kernels switch to real FFTs.  Above it the winner depends on the
# factors of N-1: N = 442: 0.871 / 0.687, 456: 1.079 / 0.639, 512: 1.301 /
# 0.916, but 448: 1.189 / 1.159 and 464 (N-1 prime): 1.037 / 1.303.
DIRECT_THRESHOLD = 440
# Largest N-1 the direct path accepts: its work matrix takes 8 (N-1)^2 bytes.
DENSE_SOLVE_CAP = 2048
_SOLVERS = ("auto", "direct", "krylov", "pkrylov")


@dataclass(frozen=True)
class ProblemSpec:
    """Model problem on Omega = (-l, l) x (0, T] with zero exterior data."""

    gamma: float
    alpha: float
    l: float
    T: float
    kappa: Callable          # (x, t) -> diffusivity > 0
    source: Callable         # (x, t) -> f
    initial: Callable        # x -> u(x, 0)
    exact: Optional[Callable] = None  # (x, t) -> u, when known


@dataclass(frozen=True)
class SolverOptions:
    solver: str = "auto"     # auto | direct | krylov | pkrylov
    tol: float = 1e-10

    def __post_init__(self):
        if self.solver not in _SOLVERS:
            raise ValueError(f"solver must be one of {', '.join(_SOLVERS)}, "
                             f"got {self.solver!r}")
        # a tol of 0, NaN or below is never met (BiCGSTAB runs to a
        # breakdown); one of 1 or more accepts the zero initial guess
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tol must be finite and lie in (0, 1), got {self.tol}")


@dataclass
class SolveReport:
    err_inf: Optional[float]
    err_2: Optional[float]
    avg_iterations: float = 0.0
    wall_time: float = 0.0
    history_ops: np.ndarray = field(default=None)  # per-level history-term flops
    history_memory_values: int = 0                 # floats held for the history term


@dataclass(frozen=True)
class StabilityCheck:
    """Per-level verification of the unconditional-stability inequality."""

    ok: bool
    per_level: np.ndarray  # bool, level k = 1..M
    max_slack: float       # max_k (||u^k||_inf - bound_k); <= 0 when ok


def select_solver(N: int, options: SolverOptions = SolverOptions()) -> str:
    """direct below the dense threshold unless overridden, else precond-krylov."""
    if options.solver != "auto":
        return options.solver
    return "direct" if N - 1 <= DIRECT_THRESHOLD else "pkrylov"


def _level_shift(mesh: GradedMesh, gamma: float, m: int) -> float:
    """shift_m = a^{(m)}_m / Gamma(1-gamma) of the level-m system."""
    return _last_weight(mesh.tau[m - 1], gamma) / math.exp(gammaln(1.0 - gamma))


class _LevelSolver:
    """Per-run solver context: dense factor path or matrix-free Krylov path."""

    def __init__(self, disc: IflDiscretization, tag: str, options: SolverOptions):
        self.tag = tag
        self.options = options
        self.n = disc.N - 1
        if tag == "direct":
            n = self.n
            if n > DENSE_SOLVE_CAP:
                raise ValueError(
                    f"the direct solver is capped at N-1 = {DENSE_SOLVE_CAP}, "
                    f"got N-1 = {n}: its {n}x{n} matrix would take "
                    f"{8 * n * n} bytes")
            # A[i, j] = col[|i - j|]: row i is a window of col[n-1], .., col[1],
            # col[0], .., col[n-1], so A is a read-only view of 2n-1 values
            col = disc.first_col
            self.A = sliding_window_view(np.concatenate((col[::-1], col[1:])), n)[::-1]
            self._work = np.empty((n, n), order="F")
            self._diag = self._work.reshape(-1, order="F")[:: n + 1]  # a view
        else:
            self.op: ToeplitzOperator = build_toeplitz(disc.first_col)

    def solve(self, shift: float, kappa: np.ndarray, rhs: np.ndarray,
              m: int, t: float) -> tuple[np.ndarray, int]:
        """u with (shift*I + diag(kappa) A) u = rhs at level m (time t), and
        the iteration count."""
        if self.tag == "direct":
            # K^{-1}(shift*I + K A) = A + diag(shift/kappa): symmetric positive
            # definite, since A is a symmetric M-matrix and shift/kappa > 0.
            # A is symmetric, so it fills the work matrix through the
            # C-ordered transpose, the faster way to copy the view
            np.copyto(self._work.T, self.A)
            self._diag += shift / kappa
            return solve_dense(self._work, rhs / kappa), 0

        # a kappa constant on the grid leaves shift*I + kappa*A symmetric
        hi = float(kappa.max())
        if hi - float(kappa.min()) <= 1e-12 * hi:
            method, solver = "CG", solve_cg
        else:
            method, solver = "BiCGSTAB", solve_bicgstab
        matvec = self.op.matvec

        def apply(v):
            # shift*v + kappa*(A v), written into the matvec's fresh output
            out = matvec(v)
            out *= kappa
            return daxpy(v, out, a=shift)

        precond = None
        if self.tag == "pkrylov":
            precond = build_preconditioner(self.op, shift, float(kappa.mean()))
        u, report = solver(apply, precond, rhs, tol=self.options.tol)
        if not report.converged:
            raise RuntimeError(
                f"{method} ({self.tag}) did not "
                f"converge at level m={m}, t_m={t:.6g}: {report.iterations} "
                f"iterations, final relative residual "
                f"{report.final_relative_residual:.3e} (tol {self.options.tol:g}), "
                f"breakdown: {report.breakdown or 'none'}"
            )
        return u, report.iterations


def _setup(spec: ProblemSpec, M: int, r: float, N: int, mu: Optional[float]):
    if N < 3:
        raise ValueError(f"N must be >= 3, got {N}")
    mesh = build_mesh(M, r, spec.T)
    mu = 1.0 + spec.alpha / 2.0 if mu is None else mu
    disc = build_ifl(spec.alpha, mu, spec.l, N)
    x = disc.interior_points()
    return mesh, disc, x


def _check_grid(name: str, what: str, values: np.ndarray, ok: np.ndarray,
                x: np.ndarray, m: int, t: float):
    """Raise naming the level and the first grid point where ``ok`` fails."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise ValueError(f"{name} must be {what} on the grid: at level m={m}, "
                         f"t={t}, {name}(x={x[bad[0]]}) = {values[bad[0]]}")


def _kappa_at(spec: ProblemSpec, x: np.ndarray, m: int, t: float) -> np.ndarray:
    k = np.broadcast_to(np.asarray(spec.kappa(x, t), dtype=float), x.shape).copy()
    # NaN fails both tests
    _check_grid("kappa", "positive and finite", k, (k > 0.0) & (k < math.inf), x, m, t)
    return k


class _ErrorTracker:
    def __init__(self, spec: ProblemSpec, x: np.ndarray, h: float):
        self.exact = spec.exact
        self.x = x
        self.sqrt_h = math.sqrt(h)
        self.err_inf = 0.0
        self.err_2 = 0.0

    def update(self, u: np.ndarray, t: float):
        if self.exact is None:
            return
        e = u - self.exact(self.x, t)
        # np.maximum keeps a NaN error, where max() would drop it
        self.err_inf = float(np.maximum(self.err_inf, np.max(np.abs(e))))
        self.err_2 = float(np.maximum(self.err_2, self.sqrt_h * np.linalg.norm(e)))

    def report_fields(self):
        if self.exact is None:
            return None, None
        return self.err_inf, self.err_2


class _L1Sum:
    """DIDS history: the L1 sum over ``hist`` = u^0 .. u^M, O(m) per level."""

    def __init__(self, gamma: float, mesh: GradedMesh, n: int):
        self.gamma = gamma
        self.mesh = mesh
        self.g1mg = math.exp(gammaln(1.0 - gamma))
        self.hist = np.empty((mesh.M + 1, n))
        self.memory_values = self.hist.size

    def add_known(self, rhs: np.ndarray, m: int) -> int:
        """rhs += the known history part of level m; returns the op count."""
        a = l1_weights(self.mesh, self.gamma, m).a
        hist = self.hist
        rhs += (a[0] / self.g1mg) * hist[0]
        if m > 1:
            rhs += (np.diff(a) @ hist[1:m]) / self.g1mg
        return m * hist.shape[1]

    def record(self, m: int, u: np.ndarray):
        self.hist[m] = u


class _SoeRecurrence:
    """FIDS history: the SOE recurrence, O(N_exp) per level; keeps u^{m-1},
    and the (M+1, N-1) history only when ``keep_history`` is set."""

    def __init__(self, soe: SoeApproximation, mesh: GradedMesh, n: int,
                 keep_history: bool):
        self.gamma = soe.gamma
        self.mesh = mesh
        self.fast = FastHistory.fresh(soe, n)
        self.ops = soe.n_exp * n
        self.memory_values = self.fast.W.size
        self.hist = np.empty((mesh.M + 1, n)) if keep_history else None
        self.u_prev = None

    def add_known(self, rhs: np.ndarray, m: int) -> int:
        """rhs += the known history part of level m; returns the op count."""
        tau_m = self.mesh.tau[m - 1]
        rhs += fast_caputo_rhs(self.fast, _last_weight(tau_m, self.gamma),
                               self.u_prev, self.gamma, tau_m)
        return self.ops

    def record(self, m: int, u: np.ndarray):
        if m > 0:
            history_push(self.fast, u - self.u_prev, self.mesh.tau[m - 1])
        self.u_prev = u
        if self.hist is not None:
            self.hist[m] = u


def _march(spec: ProblemSpec, mesh: GradedMesh, disc: IflDiscretization,
           x: np.ndarray, options: SolverOptions, history,
           t0: float) -> SolveReport:
    """Step levels 1..M with ``history`` supplying the Caputo history term."""
    tag = select_solver(disc.N, options)
    solver = _LevelSolver(disc, tag, options)

    u = np.asarray(spec.initial(x), dtype=float)
    _check_grid("initial", "finite", u, np.isfinite(u), x, 0, 0.0)
    history.record(0, u)
    tracker = _ErrorTracker(spec, x, disc.h)
    tracker.update(u, 0.0)
    its_total = 0
    ops = np.empty(mesh.M, dtype=np.int64)

    for m in range(1, mesh.M + 1):
        tm = mesh.t[m]
        kappa = _kappa_at(spec, x, m, tm)
        # a fresh array: the history is added in place, and source may
        # return an array it shares
        rhs = np.array(spec.source(x, tm), dtype=float)
        _check_grid("source", "finite", rhs, np.isfinite(rhs), x, m, tm)
        ops[m - 1] = history.add_known(rhs, m)
        u, its = solver.solve(_level_shift(mesh, spec.gamma, m), kappa, rhs, m, tm)
        its_total += its
        history.record(m, u)
        tracker.update(u, tm)

    err_inf, err_2 = tracker.report_fields()
    return SolveReport(
        err_inf=err_inf, err_2=err_2,
        avg_iterations=its_total / mesh.M, wall_time=time.perf_counter() - t0,
        history_ops=ops, history_memory_values=history.memory_values,
    )


def run_dids(
    spec: ProblemSpec,
    M: int,
    r: float,
    N: int,
    mu: Optional[float] = None,
    options: SolverOptions = SolverOptions(),
) -> tuple[np.ndarray, SolveReport]:
    """Direct implicit scheme; returns (history of shape (M+1, N-1), report).

    The history term at level m is the weighted sum of all previous levels
    with freshly computed L1 weights (O(m) work and storage per level).
    """
    t0 = time.perf_counter()
    mesh, disc, x = _setup(spec, M, r, N, mu)
    history = _L1Sum(spec.gamma, mesh, N - 1)
    report = _march(spec, mesh, disc, x, options, history, t0)
    return history.hist, report


def _default_soe(spec: ProblemSpec, M: int, r: float, epsilon: float):
    return build_soe(spec.gamma, epsilon, (1.0 / M) ** r * spec.T, spec.T)


def run_fids(
    spec: ProblemSpec,
    M: int,
    r: float,
    N: int,
    epsilon: float = 1e-10,
    mu: Optional[float] = None,
    options: SolverOptions = SolverOptions(),
    keep_history: bool = True,
) -> tuple[np.ndarray, SolveReport]:
    """Fast implicit scheme with the SOE history recurrence.

    The SOE compresses t^{-gamma} to ``epsilon`` on [tau_1, T], tau_1 =
    (1/M)^r T being the shortest step.  With ``keep_history`` the full (M+1, N-1)
    history is returned for error measurement; the memory-lean mode returns
    only the final level, the scheme itself consuming just u^{m-1} and the
    exponential accumulators.
    """
    t0 = time.perf_counter()
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    mesh, disc, x = _setup(spec, M, r, N, mu)
    history = _SoeRecurrence(_default_soe(spec, M, r, epsilon), mesh, N - 1,
                             keep_history)
    report = _march(spec, mesh, disc, x, options, history, t0)
    return (history.hist if keep_history else history.u_prev), report


def stability_probe(
    spec: ProblemSpec,
    M: int,
    r: float,
    N: int,
    scheme: str = "dids",
    epsilon: float = 1e-10,
    mu: Optional[float] = None,
    options: SolverOptions = SolverOptions(),
) -> StabilityCheck:
    """Run a scheme and verify the unconditional-stability bound per level:

    ||u^k||_inf <= ||u^0||_inf + Gamma(1-gamma) max_{1<=s<=k} ||f^s||_inf / c^{(s)}_1

    with c = a-weights for DIDS and c = b-coefficients for FIDS.
    """
    mesh, disc, x = _setup(spec, M, r, N, mu)
    if scheme == "dids":
        history = _L1Sum(spec.gamma, mesh, N - 1)
        c1 = [l1_weights(mesh, spec.gamma, m).a[0] for m in range(1, M + 1)]
    elif scheme == "fids":
        soe = _default_soe(spec, M, r, epsilon)
        history = _SoeRecurrence(soe, mesh, N - 1, keep_history=True)
        c1 = [fast_coefficients(soe, mesh, m)[0] for m in range(1, M + 1)]
    else:
        raise ValueError(f"scheme must be 'dids' or 'fids', got {scheme!r}")
    _march(spec, mesh, disc, x, options, history, time.perf_counter())
    hist = history.hist

    g1mg = math.exp(gammaln(1.0 - spec.gamma))
    u0_norm = float(np.max(np.abs(hist[0])))
    f_ratio_max = 0.0
    ok = np.empty(M, dtype=bool)
    max_slack = -math.inf
    for k in range(1, M + 1):
        f_norm = float(np.max(np.abs(spec.source(x, mesh.t[k]))))
        f_ratio_max = max(f_ratio_max, f_norm / c1[k - 1])
        bound = u0_norm + g1mg * f_ratio_max
        slack = float(np.max(np.abs(hist[k]))) - bound
        ok[k - 1] = slack <= 1e-12 * max(bound, 1.0)
        max_slack = max(max_slack, slack)
    return StabilityCheck(ok=bool(np.all(ok)), per_level=ok, max_slack=max_slack)
