"""Solver library for linear and weakly nonlinear boundary-value problems
of first-order difference systems, specializing in the resonance case where
the induced boundary operator is singular."""

from .boundary import BoundaryOperator, generic, initial_mass, multipoint, periodic
from .fibonacci import (
    fib,
    fib_delta,
    fib_delta_exponent_offset,
    fib_green_coeffs,
    fib_green_matrix_oracle,
    fib_periodic_particular,
)
from .linalg import DecompositionError, RankDecision, numerical_rank
from .linear import (
    CLASSICAL,
    FAMILY,
    QUASISOLUTION,
    LinearBVP,
    OperatorSequence,
    SolutionFamily,
    SolvabilityReport,
    classify,
    particular_forced,
    residuals,
    transition_stack,
)
from .lotka_volterra import LotkaVolterraSpec, lv_callables
from .nonlinear import (
    DerivativeMismatchError,
    GeneratingFamilyError,
    GeneratingRoot,
    IterationTrace,
    NonlinearProblem,
    NonlinearSolution,
    SufficiencyCheck,
    solve,
    verify_derivative,
)
from .problem_io import (
    Problem,
    ProblemFormatError,
    canonical_json,
    load_problem,
    parse_problem,
    rotation_matrix,
)

__version__ = "0.1.0"
