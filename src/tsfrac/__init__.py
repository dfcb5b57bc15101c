"""Matrix-free implicit difference schemes for 1-D time-space fractional
diffusion with the integral fractional Laplacian.

Time: graded-mesh L1 discretization of the Caputo derivative of order
gamma in (0,1), optionally accelerated by sum-of-exponentials kernel
compression (FIDS vs. DIDS).  Space: finite-difference integral fractional
Laplacian of order alpha in (0,2) as a symmetric Toeplitz operator with
FFT matvecs and Strang circulant preconditioning for the Krylov solvers.
"""

from .couplings import m_from_n, n_from_m, temporal_exponent
from .ifl import (
    IflDiscretization,
    build_ifl,
    diagonal_dominance_gap,
    dominance_gap_dense,
    normalization_constant,
)
from .krylov import (
    KrylovReport,
    MatrixFreeOperator,
    solve_bicgstab,
    solve_cg,
    solve_dense,
)
from .mesh import GradedMesh, L1Weights, build_mesh, caputo_l1_apply, l1_weights
from .problems import (
    ManufacturedCase,
    exact_ifl_of_bump,
    example_source,
    hypergeom_terminating,
    make_case,
)
from .scheme import (
    ProblemSpec,
    SolveReport,
    SolverOptions,
    StabilityCheck,
    run_dids,
    run_fids,
    select_solver,
    stability_probe,
)
from .soe import (
    FastHistory,
    SoeApproximation,
    SoeConstructionError,
    build_soe,
    fast_caputo_rhs,
    fast_coefficients,
    history_push,
)
from .toeplitz import (
    CirculantPreconditioner,
    PreconditionerError,
    ToeplitzOperator,
    build_preconditioner,
    build_toeplitz,
    precond_solve,
    strang_first_column,
    toeplitz_matvec,
)

__version__ = "0.1.0"
