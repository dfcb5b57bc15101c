"""Reference implementations used only as test oracles.

- ``jacobi_eigenvalues``: cyclic Jacobi rotations for dense symmetric
  matrices, the eigenvalue oracle of the matrix-property checks.
- ``dft_direct``: the O(n^2) direct DFT.
- ``radix2_fft``/``radix2_ifft``: an iterative radix-2 FFT for power-of-two
  lengths.
- ``bluestein_dft``/``bluestein_idft``: arbitrary-length DFTs by Bluestein's
  chirp-z reduction on the radix-2 core.
- ``level_solve_unscaled``: one DIDS/FIDS level system as written,
  (shift*I + diag(kappa) A) u = rhs, solved by LU.
- ``cg_reference``/``bicgstab_reference``: the allocating preconditioned CG
  and right-preconditioned BiCGSTAB loops that ``tsfrac.krylov`` runs in
  place; same algorithm, stopping rule, counting and breakdown labels.
- ``history_push_outer``: the SOE accumulator update with its rank-one
  term formed as an ``np.outer`` temporary.
- ``caputo_l1_apply``: the discrete Caputo derivative from the full
  solution history, the O(m) L1 sum.
- ``l1_weight_by_quadrature``: one L1 weight from its defining integral by
  adaptive quadrature.
- ``dids_all_at_once``: the DIDS history from one dense solve of the block
  lower-triangular system of all M levels.
- ``fast_coefficients``: the SOE history coefficients b_k in direct form.
- ``diagonal_dominance_gap``/``dominance_gap_dense``: the strict diagonal
  dominance margin of a symmetric Toeplitz column and of a dense matrix.
- ``exact_ifl_of_bump``: the closed-form fractional Laplacian of the
  manufactured profile.
- ``stability_probe``: the unconditional-stability inequality checked level
  by level on a DIDS or FIDS run.

The transforms are cross-checked against each other and against the
production ``tsfrac.fourier`` engine, so an engine swap keeps both routes
honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from tsfrac.ifl import build_ifl, splitting_parameter
from tsfrac.krylov import KrylovReport
from tsfrac.mesh import GradedMesh, _last_weight, build_mesh, l1_weights
from tsfrac.problems import _ifl_prefactor, hypergeom_terminating
from tsfrac.scheme import ProblemSpec, SolverOptions, run_dids, run_fids, run_soe
from tsfrac.soe import SoeApproximation


def jacobi_eigenvalues(
    A: np.ndarray,
    tol: float = 1e-12,
    max_sweeps: int = 60,
) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, ascending.

    Sweeps rotate away every off-diagonal pair (p, q) until the off-diagonal
    Frobenius mass falls below tol * ||A||_F.  Raises if the matrix is not
    symmetric or the iteration fails to converge (it will not, for symmetric
    input).
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"matrix must be square, got {A.shape}")
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-10 * max(1.0, np.abs(A).max())):
        raise ValueError("matrix is not symmetric")
    if n == 1:
        return A[0, :1].copy()

    B = A.copy()
    norm = np.linalg.norm(B)
    if norm == 0.0:
        return np.zeros(n)

    off_mask = 1.0 - np.eye(n)
    for _ in range(max_sweeps):
        # off-diagonal Frobenius mass summed directly; the difference
        # ||B||_F^2 - ||diag||^2 cancels catastrophically near convergence
        off = math.sqrt(np.sum(B * B * off_mask))
        if off <= tol * norm:
            return np.sort(np.diag(B))
        skip = off / (n * n)  # pairs below this contribute nothing this sweep
        for p in range(n - 1):
            row = B[p]
            for q in range(p + 1, n):
                apq = row[q]
                if abs(apq) <= skip:
                    continue
                app = B[p, p]
                aqq = B[q, q]
                theta = 0.5 * (aqq - app) / apq
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                # rotate rows/columns p and q
                bp = B[p].copy()
                bq = B[q].copy()
                B[p] = c * bp - s * bq
                B[q] = s * bp + c * bq
                bp = B[:, p].copy()
                bq = B[:, q].copy()
                B[:, p] = c * bp - s * bq
                B[:, q] = s * bp + c * bq
                B[p, q] = 0.0
                B[q, p] = 0.0
                row = B[p]
    raise RuntimeError("Jacobi iteration did not converge")


def dft_direct(x: np.ndarray) -> np.ndarray:
    """O(n^2) direct DFT; the oracle the fast transforms are checked against."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    j = np.arange(n)
    return np.exp(-2j * math.pi * np.outer(j, j) / n) @ x


_plan_cache: dict[int, tuple[np.ndarray, list[np.ndarray]]] = {}


def _radix2_plan(n: int):
    plan = _plan_cache.get(n)
    if plan is None:
        bits = n.bit_length() - 1
        rev = np.zeros(n, dtype=np.intp)
        for i in range(n):
            rev[i] = int(format(i, f"0{bits}b")[::-1], 2) if bits else 0
        twiddles = []
        size = 2
        while size <= n:
            half = size // 2
            twiddles.append(np.exp(-2j * math.pi * np.arange(half) / size))
            size *= 2
        plan = (rev, twiddles)
        _plan_cache[n] = plan
    return plan


def radix2_fft(x: np.ndarray) -> np.ndarray:
    """Iterative Cooley-Tukey FFT; length must be a power of two."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    if n == 0 or n & (n - 1):
        raise ValueError(f"radix-2 FFT needs a power-of-two length, got {n}")
    rev, twiddles = _radix2_plan(n)
    a = x[rev]
    size = 2
    for tw in twiddles:
        half = size // 2
        a = a.reshape(-1, size)
        odd = a[:, half:] * tw
        even = a[:, :half].copy()
        a[:, :half] = even + odd
        a[:, half:] = even - odd
        a = a.reshape(-1)
        size *= 2
    return a


def radix2_ifft(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    return np.conj(radix2_fft(np.conj(x))) / x.size


def bluestein_dft(x: np.ndarray) -> np.ndarray:
    """Arbitrary-length forward DFT via the chirp-z reduction.

    Writes jk = (j^2 + k^2 - (k-j)^2)/2 so the DFT becomes a convolution of
    chirp-modulated sequences, evaluated with the power-of-two radix-2 core.
    """
    x = np.asarray(x, dtype=complex)
    n = x.size
    if n == 0:
        raise ValueError("empty input")
    if n == 1:
        return x.copy()
    j = np.arange(n)
    chirp = np.exp(-1j * math.pi * (j * j % (2 * n)) / n)
    L = 1
    while L < 2 * n - 1:
        L *= 2
    a = np.zeros(L, dtype=complex)
    a[:n] = x * chirp
    b = np.zeros(L, dtype=complex)
    b[:n] = np.conj(chirp)
    b[L - n + 1:] = np.conj(chirp[1:][::-1])
    conv = radix2_ifft(radix2_fft(a) * radix2_fft(b))
    return conv[:n] * chirp


def bluestein_idft(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    return np.conj(bluestein_dft(np.conj(x))) / x.size


def level_solve_unscaled(A: np.ndarray, shift: float, kappa: np.ndarray,
                         rhs: np.ndarray) -> np.ndarray:
    """u with (shift*I + diag(kappa) A) u = rhs, assembled and solved by LU."""
    return np.linalg.solve(shift * np.eye(A.shape[0]) + kappa[:, None] * A, rhs)


def cg_reference(
    apply: Callable[[np.ndarray], np.ndarray],
    precond,
    rhs: np.ndarray,
    tol: float = 1e-10,
    max_iters: int | None = None,
) -> tuple[np.ndarray, KrylovReport]:
    """Preconditioned conjugate gradients; operator must be SPD.

    A non-positive curvature term signals loss of positive definiteness and
    is reported as a breakdown rather than raised.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.size
    max_iters = max_iters if max_iters is not None else 10 * n
    psolve = precond if precond is not None else (lambda v: v)

    x = np.zeros(n)
    r = rhs.copy()
    nrm0 = float(np.linalg.norm(r))
    if nrm0 == 0.0:
        return x, KrylovReport(0, 0.0, True)
    z = psolve(r)
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, max_iters + 1):
        q = apply(p)
        curv = float(p @ q)
        if curv <= 0.0:
            return x, KrylovReport(it, float(np.linalg.norm(r)) / nrm0, False,
                                   breakdown="non-positive curvature")
        alpha = rz / curv
        x += alpha * p
        r -= alpha * q
        rel = float(np.linalg.norm(r)) / nrm0
        if rel < tol:
            return x, KrylovReport(it, rel, True)
        z = psolve(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, KrylovReport(max_iters, float(np.linalg.norm(r)) / nrm0, False)


def bicgstab_reference(
    apply: Callable[[np.ndarray], np.ndarray],
    precond,
    rhs: np.ndarray,
    tol: float = 1e-10,
    max_iters: int | None = None,
) -> tuple[np.ndarray, KrylovReport]:
    """Right-preconditioned BiCGSTAB with the zero initial guess.

    Stops on ||r_k||_2 / ||r_0||_2 < tol where r_k is the true residual.
    Vanishing rho or omega inner products are reported as breakdowns.
    Each pass of the loop counts as one iteration, including passes that
    converge at the intermediate residual check.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.size
    max_iters = max_iters if max_iters is not None else 10 * n
    psolve = precond if precond is not None else (lambda v: v)

    x = np.zeros(n)
    r = rhs.copy()
    r0 = rhs.copy()
    nrm0 = float(np.linalg.norm(r0))
    if nrm0 == 0.0:
        return x, KrylovReport(0, 0.0, True)
    rho = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    for it in range(1, max_iters + 1):
        rho_new = float(r0 @ r)
        if rho_new == 0.0:
            return x, KrylovReport(it, float(np.linalg.norm(r)) / nrm0, False,
                                   breakdown="rho vanished")
        if it == 1:
            p[:] = r
        else:
            beta = (rho_new / rho) * (alpha / omega)
            p = r + beta * (p - omega * v)
        p_hat = psolve(p)
        v = apply(p_hat)
        denom = float(r0 @ v)
        if denom == 0.0:
            return x, KrylovReport(it, float(np.linalg.norm(r)) / nrm0, False,
                                   breakdown="r0.v vanished")
        alpha = rho_new / denom
        s = r - alpha * v
        if float(np.linalg.norm(s)) / nrm0 < tol:
            x += alpha * p_hat
            return x, KrylovReport(it, float(np.linalg.norm(s)) / nrm0, True)
        s_hat = psolve(s)
        t = apply(s_hat)
        tt = float(t @ t)
        if tt == 0.0:
            return x, KrylovReport(it, float(np.linalg.norm(s)) / nrm0, False,
                                   breakdown="omega denominator vanished")
        omega = float(t @ s) / tt
        x += alpha * p_hat + omega * s_hat
        r = s - omega * t
        rho = rho_new
        rel = float(np.linalg.norm(r)) / nrm0
        if rel < tol:
            return x, KrylovReport(it, rel, True)
        if omega == 0.0:
            return x, KrylovReport(it, rel, False, breakdown="omega vanished")
    return x, KrylovReport(max_iters, float(np.linalg.norm(r)) / nrm0, False)


def history_push_outer(W: np.ndarray, nodes: np.ndarray, delta_u: np.ndarray,
                       tau_m: float) -> np.ndarray:
    """W_j <- e^{-s_j tau_m} W_j + (delta_u / tau_m) (1 - e^{-s_j tau_m}) / s_j,
    returned as a new array; the rank-one term is one ``np.outer``."""
    W = W * np.exp(-nodes * tau_m)[:, None]
    W += np.outer(-np.expm1(-nodes * tau_m) / nodes, delta_u / tau_m)
    return W


def caputo_l1_apply(history: np.ndarray, current: np.ndarray, a: np.ndarray,
                    gamma: float) -> np.ndarray:
    """Discrete Caputo derivative at level m from the full solution history.

    Evaluates (1/Gamma(1-g)) * [a_m u^m - sum_{k=1}^{m-1} (a_{k+1}-a_k) u^k
    - a_1 u^0] where ``history`` stacks u^0 .. u^{m-1} row-wise, ``current``
    is u^m and ``a`` holds the L1 weights of level m.  Cost is
    O(m * len(current)).
    """
    hist = np.atleast_2d(np.asarray(history, dtype=float))
    u_m = np.asarray(current, dtype=float)
    m = a.size
    if hist.shape[0] != m:
        raise ValueError(f"history holds {hist.shape[0]} levels, weights expect {m}")
    if hist.shape[1] != u_m.shape[0]:
        raise ValueError("history and current vectors have mismatched lengths")
    acc = a[-1] * u_m - a[0] * hist[0]
    if m > 1:
        acc -= np.diff(a) @ hist[1:]
    return acc / math.exp(gammaln(1.0 - gamma))


def l1_weight_by_quadrature(mesh: GradedMesh, gamma: float, m: int, k: int) -> float:
    """a_k at level m, (1/tau_k) int_{t_{k-1}}^{t_k} (t_m - s)^{-gamma} ds, by
    adaptive quadrature; for k = m the algebraic-endpoint weight takes the
    singularity at s = t_m."""
    t = mesh.t
    if k < m:
        val, _ = quad(lambda s: (t[m] - s) ** -gamma, t[k - 1], t[k],
                      epsabs=1e-14, epsrel=1e-14)
    else:
        val, _ = quad(lambda s: 1.0, t[k - 1], t[k], weight="alg",
                      wvar=(0.0, -gamma))
    return val / mesh.tau[k - 1]


def dids_all_at_once(spec: ProblemSpec, M: int, r: float, N: int,
                     mu: Optional[float] = None) -> np.ndarray:
    """The DIDS history u^0 .. u^M, shape (M+1, N-1), from one dense solve.

    Level m reads, from the L1 definition,

        (1/Gamma(1-gamma)) sum_{k=1}^m a_k (u^k - u^{k-1}) + K^m A u^m = f^m,

    with each weight a_k of level m by ``l1_weight_by_quadrature``.  The M
    levels form one block lower-triangular system in the M (N-1) unknowns,
    solved by LU with no time stepping, so no sum is ordered as the scheme
    orders it.
    """
    mesh = build_mesh(M, r, spec.T)
    disc = build_ifl(spec.alpha, splitting_parameter(spec.alpha, mu), spec.l, N)
    x, A = disc.interior_points(), disc.dense()
    n = x.size
    g1mg = math.exp(gammaln(1.0 - spec.gamma))
    u0 = np.asarray(spec.initial(x), dtype=float)
    system = np.zeros((M * n, M * n))
    rhs = np.empty(M * n)
    idx = np.arange(n)
    for m in range(1, M + 1):
        a = np.array([l1_weight_by_quadrature(mesh, spec.gamma, m, k)
                      for k in range(1, m + 1)]) / g1mg
        rows = slice((m - 1) * n, m * n)
        system[rows, rows] = spec.kappa(x, mesh.t[m])[:, None] * A
        system[(m - 1) * n + idx, (m - 1) * n + idx] += a[m - 1]
        for k in range(1, m):  # u^k enters as a_k u^k - a_{k+1} u^k
            system[(m - 1) * n + idx, (k - 1) * n + idx] = a[k - 1] - a[k]
        rhs[rows] = spec.source(x, mesh.t[m]) + a[0] * u0
    return np.vstack([u0, np.linalg.solve(system, rhs).reshape(M, n)])


def fast_coefficients(soe: SoeApproximation, mesh: GradedMesh, m: int) -> np.ndarray:
    """Coefficients b_k at level m; the direct (O(m N_exp)) form.

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


def diagonal_dominance_gap(d) -> float:
    """D(A) = min_i (|a_ii| - sum_{j != i} |a_ij|), in O(N) using symmetry.

    Accepts an IflDiscretization or a bare first column.  Row i (1-based,
    i = 1..n) of the symmetric Toeplitz matrix has off-diagonal magnitude sum
    S_i = sum_{k=1}^{i-1} |c_k| + sum_{k=1}^{n-i} |c_k| where c_k =
    first_col[k]; the minimum over rows is taken via prefix sums.
    """
    col = d.first_col if hasattr(d, "first_col") else np.asarray(d, dtype=float)
    c = np.abs(col)
    n = c.size
    prefix = np.concatenate([[0.0], np.cumsum(c[1:])])  # prefix[j] = sum_{k=1}^{j} |c_k|
    i = np.arange(1, n + 1)
    row_sums = prefix[i - 1] + prefix[n - i]
    return float(np.min(c[0] - row_sums))


def dominance_gap_dense(C: np.ndarray) -> float:
    """D(C) for an arbitrary dense matrix: min_i (|C_ii| - sum_{j != i} |C_ij|)."""
    C = np.asarray(C, dtype=float)
    absC = np.abs(C)
    diag = np.diag(absC)
    return float(np.min(2.0 * diag - absC.sum(axis=1)))


def exact_ifl_of_bump(s: int, alpha: float, x) -> np.ndarray | float:
    """Exact fractional Laplacian of (1-x^2)^{s+alpha/2} inside [-1, 1]."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0):
        raise ValueError("x must lie in [-1, 1]")
    out = _ifl_prefactor(s, alpha) * hypergeom_terminating(
        (alpha + 1.0) / 2.0, s, x * x
    )
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class StabilityCheck:
    """Per-level verification of the unconditional-stability inequality."""

    ok: bool
    per_level: np.ndarray  # bool, level k = 1..M
    max_slack: float       # max_k (||u^k||_inf - bound_k); <= 0 when ok


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

    with c = a-weights for DIDS and c = b-coefficients for FIDS, the latter
    from the SOE that ``run_fids`` builds for the same arguments.
    """
    mesh = build_mesh(M, r, spec.T)
    if scheme == "dids":
        hist, _ = run_dids(spec, M, r, N, mu=mu, options=options)
        c1 = [l1_weights(mesh, spec.gamma, m)[0] for m in range(1, M + 1)]
    elif scheme == "fids":
        soe = run_soe(spec.gamma, epsilon, mesh)
        hist, _ = run_fids(spec, M, r, N, epsilon=epsilon, mu=mu, options=options)
        c1 = [fast_coefficients(soe, mesh, m)[0] for m in range(1, M + 1)]
    else:
        raise ValueError(f"scheme must be 'dids' or 'fids', got {scheme!r}")
    mu = 1.0 + spec.alpha / 2.0 if mu is None else mu
    x = build_ifl(spec.alpha, mu, spec.l, N).interior_points()

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
