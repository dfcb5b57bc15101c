"""The benchmark's workloads and their correctness gate.

Each workload is one deterministic manufactured tsfrac problem solved end to
end through the public API, one solve after another in a single process
(closed loop).  Seed 0 runs the configuration exactly as listed; any other
seed shifts alpha and gamma by a small seeded amount inside the workload's
regime, so a change can be checked on inputs it was not tuned on.  The
grid sizes M and N never change with the seed.

The splitting parameter mu follows alpha as mu = 1 + alpha/2, the library
default and the paper's choice (1.95 at alpha = 1.9).  Holding mu at 1.95
while alpha moves would leave that regime: the spatial error then decays
only like a small power of h, and err_inf grows from 3.5e-4 to about 0.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from tsfrac import (
    SolverOptions,
    build_ifl,
    build_mesh,
    build_soe,
    build_toeplitz,
    make_case,
    run_dids,
    run_fids,
)

ALPHA_SHIFT = 0.003  # largest seeded shift of alpha
GAMMA_SHIFT = 0.01   # largest seeded shift of gamma
# err_inf must match the seed-0 reference to this relative tolerance; it
# allows reduction-order and solver-tolerance changes (a few 1e-6 here)
SEED0_RTOL = 1e-4
# band around the seed-0 reference for the other seeds: at the corners of
# the shift box above err_inf moves by at most 0.8% on every workload
SEEDED_RTOL = 0.02
EPSILON = 1e-9       # SOE tolerance of the FIDS workloads


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str                # "fids" | "dids"
    case: str
    alpha: float
    gamma: float
    r: float
    M: int
    N: int
    solver: str                # SolverOptions.solver
    err_ref: float             # err_inf at seed 0
    its_band: Optional[tuple] = None  # allowed Krylov iterations per level

    @property
    def unknowns(self) -> int:
        """Space-time unknowns solved for: M levels of N-1 interior values."""
        return self.M * (self.N - 1)


WORKLOADS = {w.name: w for w in (
    Workload(
        # FIDS + Strang-preconditioned BiCGSTAB, criterion-6 configuration:
        # small system, many levels; per-call FFT and Python overhead dominate
        name="pk-n128",
        scheme="fids", case="example2", alpha=1.9, gamma=0.5, r=2.0,
        M=3326,  # m_from_n(128, 2, 0.5, 1.95)
        N=128, solver="pkrylov",
        err_ref=3.5331700850749215e-04, its_band=(6.0, 12.0),
    ),
    Workload(
        # FIDS + preconditioned BiCGSTAB with deep grading: long FFTs
        # (embedding 4096) and a 128-node SOE, whose 2.1 MB accumulator makes
        # history_push memory-bound
        name="pk-n2048-deep",
        scheme="fids", case="example2", alpha=1.9, gamma=0.8, r=3.0,
        M=512, N=2048, solver="pkrylov",
        err_ref=3.0296150214104145e-05,
    ),
    Workload(
        # DIDS + dense direct solve: O(m) history sum, L1 weights and LU; the
        # bypass workload for toeplitz, fourier, the iterative solvers and soe
        name="dids-m4096",
        scheme="dids", case="example1", alpha=1.5, gamma=0.5, r=2.0,
        M=4096,
        N=128,  # n_from_m(4096, 2, 0.5, 2)
        solver="auto",  # resolves to the dense direct path at N-1 = 127
        err_ref=1.0681728238193244e-04,
    ),
)}


@dataclass(frozen=True)
class Instance:
    """A workload with the seed's alpha and gamma filled in."""

    workload: Workload
    seed: int
    alpha: float
    gamma: float

    def spec(self):
        return make_case(self.workload.case, self.alpha, self.gamma).spec

    def solve(self, spec):
        """One full time-stepping solve; returns the SolveReport."""
        w = self.workload
        options = SolverOptions(solver=w.solver)
        if w.scheme == "fids":
            _, report = run_fids(spec, w.M, w.r, w.N, epsilon=EPSILON,
                                 options=options, keep_history=False)
        else:
            _, report = run_dids(spec, w.M, w.r, w.N, options=options)
        return report

    def setup(self):
        """Build the level-independent objects the solve builds once."""
        w = self.workload
        spec = self.spec()
        mesh = build_mesh(w.M, w.r, spec.T)
        disc = build_ifl(spec.alpha, 1.0 + spec.alpha / 2.0, spec.l, w.N)
        if w.scheme == "fids":
            build_toeplitz(disc.first_col)
            build_soe(spec.gamma, EPSILON, (1.0 / w.M) ** w.r * spec.T, spec.T)
        else:
            disc.dense()


def instance(workload: Workload, seed: int) -> Instance:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if seed == 0:
        return Instance(workload, 0, workload.alpha, workload.gamma)
    rng = np.random.default_rng(seed)
    da, dg = rng.uniform(-1.0, 1.0, size=2)
    return Instance(workload, seed, workload.alpha + ALPHA_SHIFT * float(da),
                    workload.gamma + GAMMA_SHIFT * float(dg))


def check(inst: Instance, report) -> list[str]:
    """The correctness gate for one solve; returns the failed checks."""
    w = inst.workload
    problems = []
    err = report.err_inf
    rtol = SEED0_RTOL if inst.seed == 0 else SEEDED_RTOL
    if err is None or not math.isfinite(err) or abs(err / w.err_ref - 1.0) > rtol:
        problems.append(f"err_inf {err!r} is not within {rtol:g} of the "
                        f"reference {w.err_ref!r}")
    if w.its_band is not None:
        lo, hi = w.its_band
        if not lo <= report.avg_iterations <= hi:
            problems.append(f"{report.avg_iterations:.3f} iterations per level "
                            f"is outside [{lo:g}, {hi:g}]")
    return problems
