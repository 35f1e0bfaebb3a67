"""Outer loop: cubic regularization over adaptively sized random subspaces.

Modes:
  * ``arc``     -- identity sketch with l = d (classical adaptive cubic
                   regularization; fully deterministic).
  * ``rarc``    -- fixed sketch size l0, scaled-Gaussian sketches.
  * ``rarc-d``  -- sketch size grown by the rank-driven rule
                   l_{k+1} = max(C * Rhat_k + 1, l_k) whenever the running
                   maximum Rhat of observed sketched-Hessian ranks
                   increases, capped at d.

Each iteration draws (or reuses) a sketch S_k, forms the projected
derivatives S g and S H S^T, minimizes the sketched cubic model exactly,
and accepts the trial step when the achieved-over-predicted decrease
ratio rho exceeds theta.  Per-iteration cost is charged as (l_k/d)^2
"relative Hessians seen", the budget metric used by the benchmark layer.

S H S^T comes from the problem's ``sketched_hessian`` when it has one and
the sketch is not the identity, so no d x d array is formed; otherwise
the dense Hessian is evaluated once per iteration and projected.  A
non-finite value f(x_k), gradient or projected derivative ends the run
with status ``NonFiniteDerivative``; at x0 that leaves an empty trace.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from typing import List, Optional, get_type_hints

import numpy as np

from . import sketch as sk
from . import subproblem as sp
from .errors import (
    ConfigError,
    InnerSolverError,
    InvalidDimensionError,
    InvalidProblemError,
    SingularGramError,
)
from .problems import ObjectiveProblem

MODE_ARC = "arc"
MODE_RARC = "rarc"
MODE_RARC_D = "rarc-d"
MODES = (MODE_ARC, MODE_RARC, MODE_RARC_D)

REDRAW_ON_SUCCESS = "on-success"
REDRAW_EVERY_ITERATION = "every-iteration"
REDRAW_POLICIES = (REDRAW_ON_SUCCESS, REDRAW_EVERY_ITERATION)

STATUS_GRADIENT_TOL = "GradientTolReached"
STATUS_MAX_ITER = "MaxIter"
STATUS_INNER_FAILURE = "InnerFailure"
STATUS_NON_FINITE = "NonFiniteDerivative"

#: consecutive Gram-factorization failures tolerated before giving up
_MAX_GRAM_REDRAWS = 10

def _setting(default, help: str, choices=None):
    """A SolverConfig field; its help and choices are those of its CLI flag."""
    return field(default=default, metadata={"help": help, "choices": choices})


@dataclass
class SolverConfig:
    """Parameters of the outer loop; defaults follow common practice.

    Each field is one setting of the ``solve`` and ``bench`` commands and
    of their config files; its metadata holds the flag's help text.
    """

    mode: str = _setting(MODE_RARC_D, "solver variant", MODES)
    theta: float = _setting(0.01, "acceptance threshold on rho, in (0,1)")
    sigma0: float = _setting(1.0, "initial regularization weight")
    sigma_min: float = _setting(1e-16, "floor of sigma after a successful step")
    gamma_inc: float = _setting(2.0, "sigma growth factor after a failed step (> 1)")
    gamma_dec: float = _setting(0.5, "sigma decrease factor after a successful step, in (0,1)")
    epsilon: float = _setting(1e-5, "first-order tolerance on ||grad f||")
    max_iter: int = _setting(2000, "iteration cap")
    l0: int = _setting(2, "initial (or, for rarc, fixed) sketch size")
    growth_c: int = _setting(1, "sketch growth constant of rarc-d (>= 1)")
    rank_tol: float = _setting(1e-10, "relative eigenvalue threshold of the observed rank")
    redraw_policy: str = _setting(REDRAW_ON_SUCCESS, "sketch redraw policy", REDRAW_POLICIES)
    distribution: Optional[str] = _setting(
        None, "sketch distribution; None: identity for arc, else Gaussian", sk.DISTRIBUTIONS
    )
    seed: int = _setting(0, "solver RNG seed")
    inner_tol: float = _setting(1e-10, "tolerance of the subproblem's secular equation")
    max_inner: int = _setting(200, "secular-equation evaluations per subproblem")

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.theta < 1.0:
            raise ConfigError(f"need theta in (0,1), got {self.theta}")
        if self.sigma0 <= 0.0 or self.sigma_min <= 0.0 or self.sigma0 < self.sigma_min:
            raise ConfigError(
                f"need sigma0 >= sigma_min > 0, got sigma0={self.sigma0}, "
                f"sigma_min={self.sigma_min}"
            )
        if self.gamma_inc <= 1.0:
            raise ConfigError(f"need gamma_inc > 1, got {self.gamma_inc}")
        if not 0.0 < self.gamma_dec < 1.0:
            raise ConfigError(f"need gamma_dec in (0,1), got {self.gamma_dec}")
        if self.epsilon <= 0.0:
            raise ConfigError(f"need epsilon > 0, got {self.epsilon}")
        if self.max_iter < 0:
            raise ConfigError(f"need max_iter >= 0, got {self.max_iter}")
        if self.l0 < 1:
            raise ConfigError(f"need l0 >= 1, got {self.l0}")
        if self.growth_c < 1:
            raise ConfigError(f"need C >= 1, got {self.growth_c}")
        if self.rank_tol <= 0.0:
            raise ConfigError(f"need rank_tol > 0, got {self.rank_tol}")
        if self.redraw_policy not in REDRAW_POLICIES:
            raise ConfigError(f"unknown redraw policy {self.redraw_policy!r}")
        if self.distribution is not None and self.distribution not in sk.DISTRIBUTIONS:
            raise ConfigError(f"unknown distribution {self.distribution!r}")

    def solver_id(self) -> str:
        if self.mode == MODE_ARC:
            return "arc"
        if self.mode == MODE_RARC:
            return f"rarc-l{self.l0}"
        return f"rarc-d-l0{self.l0}"


@dataclass
class IterationTrace:
    k: int
    f: float
    grad_norm: float
    l_k: int
    r_hat_k: int
    big_r_hat_k: int
    sigma_k: float
    rho_k: float  # NaN when the model decrease fell below the guard
    success: bool
    step_norm: float  # ||S^T s||, the length of the trial step
    inner_iterations: int  # secular-equation evaluations of the subproblem
    cum_rel_hessians: float
    wall_time_s: float  # cumulative solver-loop seconds, time.perf_counter


#: trace CSV column names, in IterationTrace field order
_CSV_NAMES = {"big_r_hat_k": "R_hat_k"}
TRACE_COLUMNS = tuple(_CSV_NAMES.get(f.name, f.name) for f in fields(IterationTrace))


@dataclass
class SolveResult:
    x_final: np.ndarray
    f_final: float
    grad_norm_final: float
    status: str
    trace: List[IterationTrace] = field(default_factory=list)


def update_sketch_size(l_k: int, r_hat_k: int, r_hat_prev: int, c: int, d: int) -> int:
    """Sketch-size growth rule: grow to C*Rhat+1 when Rhat increased.

    Never shrinks, and never exceeds the ambient dimension d.
    """
    if r_hat_k > r_hat_prev:
        return min(max(c * r_hat_k + 1, l_k), d)
    return l_k


def decrease_ratio(f_x: float, f_trial: float, q_decrease: float, guard: float) -> float:
    """Achieved-over-predicted decrease; NaN when the predicted decrease
    is below the guard (the iteration is then unsuccessful without dividing)."""
    if q_decrease > guard:
        return (f_x - f_trial) / q_decrease
    return math.nan


def _initial_sketch_size(problem: ObjectiveProblem, config: SolverConfig) -> int:
    if config.mode == MODE_ARC:
        return problem.dim
    return config.l0


def _distribution(config: SolverConfig) -> str:
    if config.distribution is not None:
        return config.distribution
    return sk.IDENTITY if config.mode == MODE_ARC else sk.SCALED_GAUSSIAN


def _observed_rank(
    model: sp.SketchedCubicModel, solution: sp.SubproblemSolution, rel_tol: float
) -> int:
    """Numerical rank of the sketched Hessian S H S^T.

    With an identity Gram, ``solve`` eigendecomposed S H S^T itself, so its
    spectrum is ranked.  Otherwise it eigendecomposed L^{-1} H L^{-T}: the
    same rank in exact arithmetic, but other eigenvalues, which the relative
    threshold can rank differently, so S H S^T is decomposed again.
    """
    if model.identity_gram:
        return sk.spectrum_rank(solution.eigenvalues, rel_tol).numerical_rank
    return sk.numerical_rank(model.h_hat, rel_tol).numerical_rank


def run(problem: ObjectiveProblem, config: SolverConfig) -> SolveResult:
    """Minimize ``problem`` until ||grad f|| <= epsilon or max_iter iterations.

    The trace records one row per iteration (f, gradient norm, sketch
    size, observed rank and its running maximum, sigma, rho, success flag,
    step norm, inner iterations, and the cumulative budget counters).
    Raises InvalidProblemError when ``rarc-d`` observes a sketched-Hessian
    rank that ``problem.known_rank`` says cannot occur.
    """
    config.validate()
    d = problem.dim
    if config.mode != MODE_ARC and config.l0 > d:
        raise InvalidDimensionError(f"l0={config.l0} exceeds problem dimension {d}")
    distribution = _distribution(config)
    if distribution == sk.IDENTITY and _initial_sketch_size(problem, config) != d:
        raise ConfigError("identity sketches require l = d")

    rng = np.random.default_rng(config.seed)
    x = np.array(problem.x0, dtype=float, copy=True)
    sigma = config.sigma0
    l = _initial_sketch_size(problem, config)
    r_hat_running = 0
    s_mat: Optional[sk.SketchMatrix] = None
    need_draw = True
    trace: List[IterationTrace] = []
    cum_rel = 0.0
    cum_time = 0.0
    status = STATUS_MAX_ITER
    f = problem.value(x)
    grad = problem.gradient(x)
    sketch_first = problem.sketched_hessian is not None and distribution != sk.IDENTITY

    for k in range(config.max_iter + 1):
        if not (np.isfinite(f) and np.all(np.isfinite(grad))):
            status = STATUS_NON_FINITE
            break
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= config.epsilon:
            status = STATUS_GRADIENT_TOL
            break
        if k == config.max_iter:
            status = STATUS_MAX_ITER
            break

        t0 = time.perf_counter()
        hess = None if sketch_first else problem.hessian(x)

        solution = None
        for attempt in range(_MAX_GRAM_REDRAWS + 1):
            if need_draw or s_mat is None:
                s_mat = sk.draw(distribution, l, d, rng)
                need_draw = config.redraw_policy == REDRAW_EVERY_ITERATION
            g_hat = sk.sketch_gradient(s_mat, grad)
            if sketch_first:
                h_hat = sk.symmetrize(problem.sketched_hessian(x, s_mat.matrix))
            else:
                h_hat = sk.sketch_hessian(s_mat, hess)
            finite = bool(np.all(np.isfinite(g_hat)) and np.all(np.isfinite(h_hat)))
            if not finite:
                break
            try:
                model = sp.build_model(
                    f, g_hat, h_hat, sigma, s_mat.gram(), s_mat.distribution == sk.IDENTITY
                )
                solution = sp.solve(model, inner_tol=config.inner_tol, max_inner=config.max_inner)
                break
            except (SingularGramError, InnerSolverError):
                s_mat = None
                need_draw = True
                if distribution == sk.IDENTITY or attempt == _MAX_GRAM_REDRAWS:
                    solution = None
                    break
        if solution is None:
            status = STATUS_INNER_FAILURE if finite else STATUS_NON_FINITE
            cum_time += time.perf_counter() - t0
            break

        r_hat = _observed_rank(model, solution, config.rank_tol)
        r_hat_prev = r_hat_running
        r_hat_running = max(r_hat_running, r_hat)

        step = s_mat.matrix.T @ solution.s_hat
        q_dec = sp.quadratic_decrease(model, solution.s_hat)
        f_trial = problem.value(x + step)
        guard = 1e-16 * (1.0 + abs(f))
        rho = decrease_ratio(f, f_trial, q_dec, guard)
        success = bool(rho >= config.theta) if not math.isnan(rho) else False

        f_at_k = f  # value at the iterate this row describes
        sigma_used = sigma
        if success:
            x = x + step
            f = f_trial
            grad = problem.gradient(x)
            sigma = max(config.gamma_dec * sigma, config.sigma_min)
            if config.redraw_policy == REDRAW_ON_SUCCESS:
                need_draw = True
        else:
            sigma = config.gamma_inc * sigma

        cum_rel += (l / d) ** 2
        cum_time += time.perf_counter() - t0
        trace.append(
            IterationTrace(
                k=k,
                f=f_at_k,
                grad_norm=gnorm,
                l_k=l,
                r_hat_k=r_hat,
                big_r_hat_k=r_hat_running,
                sigma_k=sigma_used,
                rho_k=rho,
                success=success,
                step_norm=solution.cubic_norm,
                inner_iterations=solution.inner_iterations,
                cum_rel_hessians=cum_rel,
                wall_time_s=cum_time,
            )
        )

        if config.mode == MODE_RARC_D:
            l_next = update_sketch_size(l, r_hat_running, r_hat_prev, config.growth_c, d)
            if problem.known_rank is not None:
                bound = max(config.growth_c * problem.known_rank + 1, config.l0)
                if l_next > bound:
                    raise InvalidProblemError(
                        f"sketch size {l_next} exceeds max(C * known_rank + 1, l0) = {bound}: "
                        f"{problem.name} declares known_rank={problem.known_rank} "
                        f"but a sketched Hessian of rank {r_hat_running} was observed"
                    )
            if l_next != l:
                l = l_next
                need_draw = True

    return SolveResult(
        x_final=x,
        f_final=float(problem.value(x)),
        grad_norm_final=float(np.linalg.norm(problem.gradient(x))),
        status=status,
        trace=trace,
    )


def trace_to_csv(trace: List[IterationTrace], path) -> None:
    """Write one CSV row per iteration with round-trip float formatting."""
    types = get_type_hints(IterationTrace)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in trace:
            writer.writerow(repr(v) if types[name] is float else v for name, v in vars(row).items())


def trace_from_csv(path) -> List[IterationTrace]:
    types = get_type_hints(IterationTrace)
    parse = {k: (lambda raw: raw == "True") if t is bool else t for k, t in types.items()}
    columns = [(f.name, col) for f, col in zip(fields(IterationTrace), TRACE_COLUMNS)]
    with open(path, newline="") as fh:
        return [
            IterationTrace(**{name: parse[name](rec[col]) for name, col in columns})
            for rec in csv.DictReader(fh)
        ]


def summary_dict(problem: ObjectiveProblem, config: SolverConfig, result: SolveResult) -> dict:
    """JSON-serializable run summary: config echo, status, final values."""
    return {
        "problem": problem.name,
        "dim": problem.dim,
        "solver_id": config.solver_id(),
        "config": asdict(config),
        "status": result.status,
        "iterations": len(result.trace),
        "f_final": result.f_final,
        "grad_norm_final": result.grad_norm_final,
        "cum_rel_hessians": result.trace[-1].cum_rel_hessians if result.trace else 0.0,
    }


def write_summary(problem, config, result, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary_dict(problem, config, result), fh, indent=2)
        fh.write("\n")
