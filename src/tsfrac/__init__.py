"""Matrix-free implicit difference schemes for 1-D time-space fractional
diffusion with the integral fractional Laplacian.

Time: graded-mesh L1 discretization of the Caputo derivative of order
gamma in (0,1), optionally accelerated by sum-of-exponentials kernel
compression (FIDS vs. DIDS).  Space: finite-difference integral fractional
Laplacian of order alpha in (0,2) as a symmetric Toeplitz operator with
dense-BLAS or real-FFT matvecs (picked by order) and Strang circulant
preconditioning for the Krylov solvers.
"""

from .couplings import m_from_n, n_from_m, temporal_exponent
from .ifl import (
    IflDiscretization,
    build_ifl,
    normalization_constant,
)
from .krylov import (
    KrylovReport,
    solve_bicgstab,
    solve_cg,
    solve_dense,
)
from .mesh import GradedMesh, build_mesh, gamma_factor, l1_weights, level_shift
from .problems import (
    ManufacturedCase,
    hypergeom_terminating,
    make_case,
)
from .scheme import (
    ProblemSpec,
    SolveReport,
    SolverOptions,
    run_dids,
    run_fids,
    select_solver,
)
from .soe import (
    FastHistory,
    SoeApproximation,
    SoeConstructionError,
    build_soe,
    history_push,
    history_sum,
)
from .toeplitz import (
    PreconditionerError,
    ToeplitzOperator,
    build_preconditioner,
    build_toeplitz,
    precond_solve,
    strang_eigenvalues,
    strang_first_column,
    toeplitz_matvec,
)

__version__ = "0.1.0"
