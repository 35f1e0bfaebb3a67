"""Cubic regularization over adaptively sized random subspaces.

The solver restricts each Newton-type step to the row space of a random
sketch whose size grows with the numerical rank observed in the sketched
Hessian, which makes it cheap on functions whose Hessians have low rank
everywhere.  The package also ships the low-rank test-problem generator,
rank/embedding diagnostics, and a data-profile benchmark harness.
"""

from .bench import (
    BenchmarkRun,
    DataProfile,
    data_profile,
    read_runs_csv,
    run_grid,
    solved_budget,
    write_profile_csv,
    write_runs_csv,
)
from .errors import (
    ConfigError,
    InnerSolverError,
    InvalidDimensionError,
    InvalidInputError,
    InvalidProblemError,
    RsarcError,
    SingularGramError,
    UnsupportedProblemError,
)
from .problems import (
    BUILTIN_NAMES,
    ObjectiveProblem,
    augment,
    builtin_problem,
    get_problem,
    make_orthogonal_embedding,
    quadrank_minimizer,
)
from .sketch import (
    IDENTITY,
    SCALED_GAUSSIAN,
    EmbeddingCheck,
    SketchMatrix,
    check_subspace_embedding,
    draw,
    numerical_rank,
    sketch_gradient,
    sketch_hessian,
    spectrum_rank,
)
from .solver import (
    MODE_ARC,
    MODE_RARC,
    MODE_RARC_D,
    STATUS_DECREASE_UNRESOLVED,
    STATUS_GRADIENT_TOL,
    STATUS_INNER_FAILURE,
    STATUS_MAX_ITER,
    STATUS_NON_FINITE,
    IterationTrace,
    SolveResult,
    SolverConfig,
    decrease_ratio,
    run,
    trace_from_csv,
    trace_to_csv,
    update_sketch_size,
)
from .subproblem import (
    SketchedCubicModel,
    SubproblemSolution,
    build_model,
    check_termination,
    model_gradient,
    model_hessian,
    model_value,
    solve,
)

__version__ = "0.1.0"
