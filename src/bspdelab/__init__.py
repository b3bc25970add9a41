"""Lattice laboratory for degenerate backward stochastic PDEs.

Periodic finite-difference grids paired with Bernoulli increment trees give
exact conditional expectations and martingale representations, so backward
solves, energy estimates, and stochastic control experiments all run with
machine-checkable identities instead of Monte Carlo noise.
"""

from .coefficients import (
    CoefficientDataError,
    CoefficientSample,
    CoefficientSet,
    DerivedCoefficients,
    OleinikReport,
    ParabolicityError,
    ParabolicityReport,
    SymmetryReport,
    builtin_counterexamples,
    check_parabolicity,
    check_symmetry,
    constant_sampler,
    derive_from_sample,
    oleinik_constant,
)
from .control import (
    AdjointPair,
    ControlPolicy,
    ControlProblem,
    DualityReport,
    ExhaustiveResult,
    ForwardState,
    MaxPrincipleReport,
    PolicyIterationRecord,
    PolicyOscillationWarning,
    check_max_principle,
    constant_policy,
    control_report,
    cost,
    duality_check,
    exhaustive_policy_search,
    forward_cfl,
    policies_equal,
    policy_iteration,
    solve_adjoint,
    solve_forward,
)
from .energy import (
    BasicEstimateReport,
    EnergyConfig,
    EnergyFields,
    EstimateEntry,
    EstimateReport,
    PowerG,
    SweepTable,
    check_basic_estimate,
    constant_sweep,
    energy_fields,
    main_estimate_reports,
    theta,
    verify_main_estimates,
)
from .expr import (
    ExprEvalError,
    ExprParseError,
    evaluate,
    expression_variables,
    parse,
    print_expression,
)
from .grid import (
    MAX_DERIVATIVE_ORDER,
    DerivativeCapError,
    SpatialGrid,
    axis_derivative,
    batch_divergence,
    batch_gradient,
    diff,
    inner_product,
    level_norm_sq,
    multi_indices,
    random_smooth_field,
    read_field_binary,
    read_field_csv,
    sobolev_norm,
    write_field_binary,
    write_field_csv,
)
from .lattice import (
    FULL_TREE_BIT_BUDGET,
    AdaptedGridField,
    BudgetExceededError,
    IncompleteFieldError,
    NodeId,
    PathTree,
    TimeGrid,
    UnsupportedModeError,
    build_tree,
    child_values,
    level_conditional_expectation,
    level_martingale_representation,
    tree_expectation,
)
from .oracles import (
    OracleSolution,
    convergence_constant,
    exact_level_fields,
    heat_oracle,
    solution_error,
    wiener_linear_oracle,
)
from .solver import (
    CflError,
    CflReport,
    ContinuationResult,
    LevelCoefficients,
    ProblemData,
    SingularOperatorError,
    SolutionPair,
    SolverBlowupError,
    SolverConfig,
    StochasticCouplingWarning,
    TransportCflWarning,
    WeakFormReport,
    default_test_functions,
    estimate_cfl,
    oracle_step_residual,
    problem_from_oracle,
    solve,
    viscosity_continuation,
    weak_form_residual,
)

__version__ = "0.1.0"
