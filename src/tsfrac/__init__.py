"""Matrix-free implicit difference schemes for 1-D time-space fractional
diffusion with the integral fractional Laplacian.

Time: graded-mesh L1 discretization of the Caputo derivative of order
gamma in (0,1), optionally accelerated by sum-of-exponentials kernel
compression (FIDS vs. DIDS).  Space: finite-difference integral fractional
Laplacian of order alpha in (0,2) as a symmetric Toeplitz operator with
dense-BLAS or real-FFT matvecs (picked by order) and Strang circulant
preconditioning for the Krylov solvers.

The package root carries the solver API: the two run drivers, their
problem, options and report types, the builders of a run's pieces, and the
errors those raise.  Every other name is imported from its module, e.g.
``tsfrac.soe.history_push`` or ``tsfrac.krylov.solve_bicgstab``.
"""

from .ifl import build_ifl
from .mesh import build_mesh
from .problems import make_case
from .scheme import ProblemSpec, SolveReport, SolverOptions, run_dids, run_fids
from .soe import SoeConstructionError, build_soe
from .toeplitz import PreconditionerError, build_toeplitz

__version__ = "0.1.0"
