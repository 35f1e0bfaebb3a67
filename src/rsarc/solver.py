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
ratio rho reaches ``_THETA``; that test and the sigma update are the fixed
ones of adaptive cubic regularization (module constants).  Per-iteration
cost is charged as (l_k/d)^2 "relative Hessians seen", the budget metric
used by the benchmark layer.

The identity sketch is never formed as a matrix: g and the symmetric part
of the dense Hessian enter the model as they are, its Gram is None and
the step is s itself.  For the scaled-Gaussian sketches of ``rarc`` and
``rarc-d``, S H S^T comes from one projection chosen at the start of the
run: the problem's ``sketched_hessian`` when it has one, so no d x d
array is formed, and otherwise S H S^T from the dense Hessian, evaluated
for every sketch.

An iteration makes one l x l eigendecomposition, in
``subproblem.build_model``, and takes the observed rank from the model's
eigenvalues.  ``run`` keeps its sketch state in one variable: ``model``
is None when the next iteration must build a model at x_k, and a sketched
mode draws a fresh sketch for every model it builds.  A success, a change
of l or the ``every-iteration`` policy drops the model, together with its
sketch and the last Hessian, before the next Hessian is formed.  A model
that survives a rejected step is reused with the new sigma: that
iteration draws nothing, evaluates no Hessian and decomposes nothing, and
its iterate is bit for bit the one a recomputation would give.

A non-finite value f(x_k), gradient or projected derivative
ends the run with status ``NonFiniteDerivative``; at x0 that leaves an
empty trace.
A predicted decrease at or below the rho guard 1e-16 (1 + |f|) on
``_MAX_UNRESOLVED_DECREASES`` consecutive iterations, where sigma would
otherwise double towards overflow, ends it with ``DecreaseUnresolved``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
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
STATUS_DECREASE_UNRESOLVED = "DecreaseUnresolved"

#: consecutive Gram-factorization failures tolerated before giving up
_MAX_GRAM_REDRAWS = 10
#: consecutive iterations with the predicted decrease at or below the rho
#: guard tolerated before giving up
_MAX_UNRESOLVED_DECREASES = 20
#: the step test rho >= _THETA and the sigma update of adaptive cubic regularization
#: (Cartis, Gould & Toint 2011): sigma * _GAMMA_INC after a rejected step,
#: max(sigma * _GAMMA_DEC, _SIGMA_MIN) after an accepted one
_THETA = 0.01
_GAMMA_INC = 2.0
_GAMMA_DEC = 0.5
_SIGMA_MIN = 1e-16
#: the variables that set the BLAS thread count when numpy loads, at one thread
ONE_BLAS_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")

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
    sigma0: float = _setting(1.0, "initial regularization weight")
    epsilon: float = _setting(1e-5, "first-order tolerance on ||grad f||")
    max_iter: int = _setting(2000, "iteration cap")
    l0: int = _setting(2, "initial (or, for rarc, fixed) sketch size")
    growth_c: int = _setting(1, "sketch growth constant of rarc-d (>= 1)")
    redraw_policy: str = _setting(REDRAW_ON_SUCCESS, "sketch redraw policy", REDRAW_POLICIES)
    seed: int = _setting(0, "solver RNG seed")

    def validate(self) -> None:
        for name in _FLOAT_SETTINGS:
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"need a finite {name}, got {getattr(self, name)}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.sigma0 < _SIGMA_MIN:
            raise ConfigError(f"need sigma0 >= {_SIGMA_MIN}, got {self.sigma0}")
        if self.epsilon <= 0.0:
            raise ConfigError(f"need epsilon > 0, got {self.epsilon}")
        if self.max_iter < 0:
            raise ConfigError(f"need max_iter >= 0, got {self.max_iter}")
        if self.l0 < 1:
            raise ConfigError(f"need l0 >= 1, got {self.l0}")
        if self.growth_c < 1:
            raise ConfigError(f"need C >= 1, got {self.growth_c}")
        if self.redraw_policy not in REDRAW_POLICIES:
            raise ConfigError(f"unknown redraw policy {self.redraw_policy!r}")
        if self.seed < 0:
            raise ConfigError(f"need seed >= 0, got {self.seed}")

    def solver_id(self) -> str:
        if self.mode == MODE_ARC:
            return "arc"
        if self.mode == MODE_RARC:
            return f"rarc-l{self.l0}"
        return f"rarc-d-l0{self.l0}"


#: the float fields of SolverConfig, each of which must be finite
_FLOAT_SETTINGS = tuple(name for name, hint in get_type_hints(SolverConfig).items() if hint is float)


@dataclass
class IterationTrace:
    k: int
    f: float
    grad_norm: float
    l_k: int
    r_hat_k: int
    big_r_hat_k: int
    sigma_k: float
    rho_k: float  # NaN when the predicted decrease fell below the guard
    predicted_decrease: float  # f_k - q(s), the rho denominator
    success: bool
    step_norm: float  # ||S^T s||, the length of the trial step
    inner_iterations: int  # secular-equation evaluations of the subproblem
    mu: float  # secular multiplier of the subproblem solution
    hard_case: bool  # the step was padded along the minimal eigenvector
    gram_redraws: int  # sketches redrawn after a singular Gram or inner failure
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


def run(problem: ObjectiveProblem, config: SolverConfig) -> SolveResult:
    """Minimize ``problem`` until ||grad f|| <= epsilon or max_iter iterations.

    The trace records one row per iteration (f, gradient norm, sketch
    size, observed rank and its running maximum, sigma, rho and its
    denominator, success flag, step norm, inner iterations, the secular
    multiplier and hard-case flag, Gram redraws, and the cumulative budget
    counters).
    Raises InvalidProblemError when ``rarc-d`` observes a sketched-Hessian
    rank that ``problem.known_rank`` says cannot occur.
    """
    config.validate()
    d = problem.dim
    identity = config.mode == MODE_ARC  # S = I is never formed: s_mat stays None
    if not identity and config.l0 > d:
        raise InvalidDimensionError(f"l0={config.l0} exceeds problem dimension {d}")

    rng = np.random.default_rng(config.seed)
    x = np.array(problem.x0, dtype=float, copy=True)
    sigma = config.sigma0
    l = d if identity else config.l0
    r_hat_running = 0
    s_mat: Optional[sk.SketchMatrix] = None  # the sketch of model
    model: Optional[sp.SketchedCubicModel] = None  # None: draw and build a model at x
    trace: List[IterationTrace] = []
    cum_rel = 0.0
    cum_time = 0.0
    unresolved = 0  # consecutive iterations whose rho guard failed
    status = STATUS_MAX_ITER
    f = problem.value(x)
    grad = problem.gradient(x)
    project = problem.sketched_hessian or (lambda x, s: s @ problem.hessian(x) @ s.T)

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
        solution = None
        if model is not None:
            # only sigma moved: keep g_hat, H_hat, the Gram factor and the eigenpairs
            model = replace(model, sigma=sigma)
        finite = True
        for redraws in range(_MAX_GRAM_REDRAWS + 1):
            try:
                if model is None:
                    if identity:
                        g_hat = grad
                        h_hat = sk.symmetrize(problem.hessian(x))
                    else:
                        s_mat = sk.draw(sk.SCALED_GAUSSIAN, l, d, rng)
                        g_hat = sk.sketch_gradient(s_mat, grad)
                        h_hat = sk.symmetrize(project(x, s_mat.matrix))
                    finite = bool(np.all(np.isfinite(g_hat)) and np.all(np.isfinite(h_hat)))
                    if not finite:
                        break
                    model = sp.build_model(f, g_hat, h_hat, sigma, None if identity else s_mat.gram())
                solution = sp.solve(model)
                break
            except (SingularGramError, InnerSolverError):
                model = s_mat = None
                if identity or redraws == _MAX_GRAM_REDRAWS:
                    break
        if solution is None:
            status = STATUS_INNER_FAILURE if finite else STATUS_NON_FINITE
            cum_time += time.perf_counter() - t0
            break

        # build_model decomposed L^{-1} S H S^T L^{-T}, which is congruent to
        # S H S^T and so has its rank (Sylvester's law of inertia).  By
        # Ostrowski's theorem each eigenvalue is scaled by a factor between
        # the extreme eigenvalues of (S S^T)^{-1}, so the relative threshold
        # can rank the two spectra differently only for eigenvalues within
        # cond(S S^T) of it.  With an identity Gram (None) the spectrum is
        # that of S H S^T itself.
        r_hat = sk.spectrum_rank(model.eigenvalues)
        r_hat_prev = r_hat_running
        r_hat_running = max(r_hat_running, r_hat)

        step = solution.s_hat if identity else s_mat.matrix.T @ solution.s_hat
        q_dec = solution.predicted_decrease
        f_trial = problem.value(x + step)
        guard = 1e-16 * (1.0 + abs(f))
        rho = decrease_ratio(f, f_trial, q_dec, guard)
        success = bool(rho >= _THETA)  # False when rho is NaN
        unresolved = unresolved + 1 if q_dec <= guard else 0

        f_at_k = f  # value at the iterate this row describes
        sigma_used = sigma
        if success:
            x = x + step
            f = f_trial
            grad = problem.gradient(x)
            sigma = max(_GAMMA_DEC * sigma, _SIGMA_MIN)
        else:
            sigma = _GAMMA_INC * sigma

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
                predicted_decrease=q_dec,
                success=success,
                step_norm=solution.cubic_norm,
                inner_iterations=solution.inner_iterations,
                mu=solution.mu,
                hard_case=solution.hard_case,
                gram_redraws=redraws,
                cum_rel_hessians=cum_rel,
                wall_time_s=cum_time,
            )
        )

        l_next = l
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
        redraw = l_next != l or config.redraw_policy == REDRAW_EVERY_ITERATION
        l = l_next
        if success or (not identity and redraw):
            # free the last sketch and d x d arrays before the next H is formed
            model = h_hat = s_mat = None

        if unresolved == _MAX_UNRESOLVED_DECREASES:
            status = STATUS_DECREASE_UNRESOLVED
            break

    return SolveResult(
        x_final=x,
        f_final=float(f),
        grad_norm_final=float(np.linalg.norm(grad)),
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


def thread_settings() -> dict:
    """The BLAS thread variables (None when unset), on which rounding depends, and the cores."""
    return {**{name: os.environ.get(name) for name in ONE_BLAS_THREAD}, "cpu_count": os.cpu_count()}


def summary_dict(problem: ObjectiveProblem, config: SolverConfig, result: SolveResult) -> dict:
    """JSON-serializable run summary: config echo, status, final values,
    step, Gram-redraw and hard-case counts, the range of sigma_k (null
    for an empty trace) and the BLAS thread settings of this process."""
    accepted = sum(row.success for row in result.trace)
    sigmas = [row.sigma_k for row in result.trace]
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
        "accepted_steps": accepted,
        "rejected_steps": len(result.trace) - accepted,
        "gram_redraws": sum(row.gram_redraws for row in result.trace),
        "hard_cases": sum(row.hard_case for row in result.trace),
        "sigma_k_min": min(sigmas, default=None),
        "sigma_k_max": max(sigmas, default=None),
        "threads": thread_settings(),
    }


def write_summary(problem, config, result, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary_dict(problem, config, result), fh, indent=2)
        fh.write("\n")
