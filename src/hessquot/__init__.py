"""Sigma-quotient operator algebra and a continuity-method Dirichlet solver.

The library implements the operator (sigma_k/sigma_l)^(1/(k-l)) applied to
the eigenvalues of tau*tr(Hessian)*I - Hessian on flat box domains, solves
the associated Dirichlet problem by continuation from a subsolution, and
ships the algebraic identities of the underlying symmetric-function theory
as executable properties.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    EigenFailureError,
    HomotopyStallError,
    LineSearchError,
    NewtonDivergenceError,
    NotAdmissibleError,
    OracleScaleError,
    ProblemSpecError,
    SamplerExhaustedError,
    SingularSystemError,
    SolverError,
)
from .symfun import (
    QuotientSpec,
    in_gamma_k,
    newton_maclaurin_holds,
    quotient_gradient,
    quotient_hessian,
    quotient_value,
    sample_gamma_k,
    sigma_all,
    sigma_partial,
    sigma_second_partial,
)
from .spectral import (
    EigenPair,
    eta_operator_gradient,
    eta_transform,
    gradient_divided_difference,
    operator_gradient,
    operator_value,
    sym_eig,
)
from .expr import EvalEnv, differentiate, evaluate, parse, to_string
from .grid import (
    Grid,
    GridFunction,
    SparseSystem,
    assemble_jacobian,
    assemble_residual,
    fd_gradient,
    fd_hessian,
    sample_expression,
)
from .solver import (
    HomotopyParams,
    NewtonParams,
    ProblemSpec,
    PsiField,
    SolveReport,
    StageRecord,
    homotopy_rhs_field,
    linear_solve,
    solve_dirichlet,
)
from .verify import (
    ConvergenceStudy,
    DiagnosticsReport,
    convergence_order,
    manufactured_problem,
    run_diagnostics,
    selftest,
    sigma_bruteforce,
)
