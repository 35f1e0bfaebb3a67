"""Outer loop: cubic regularization over adaptively sized random subspaces.

Modes:
  * ``arc``     -- identity sketch with l = d (classical adaptive cubic
                   regularization; fully deterministic), its model built
                   by Lanczos on Hessian-vector products.
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

The identity sketch is never formed as a matrix, nor is the d x d Hessian:
each ``arc`` model makes the problem's Hessian operator at x_k once
(``problem.hmul(x)``), and ``subproblem.lanczos`` runs on it from g.  It
returns an orthonormal basis V_k of the Krylov space K_k(H, g) and the
k x k tridiagonal T_k = V_k H V_k^T as its diagonal and off-diagonal.
The model (``subproblem.krylov_model``) has gradient ||g|| e_1 and
Hessian T_k, which LAPACK's ``dstedc`` decomposes as the tridiagonal it
is, and its minimizer u gives the step V_k^T u: the Krylov subproblem of
adaptive cubic regularization, whose step is the full-space minimizer
outside the hard case (in exact arithmetic; on a Hessian of rank r, k
stays near r + 1).  A Krylov space from g cannot see an eigenvector
orthogonal to g, so the exact hard case is lost.  A scaled-Gaussian
sketch's S g and S H S^T (the problem's ``sketched_hessian``, as returned;
no d x d array is formed) are whitened by ``subproblem.whiten``, and the
model's minimizer u gives the step S^T L^{-T} u; that model is one
eigendecomposition (``subproblem.build_model``) of one triangle of the
whitened S H S^T, which no layer symmetrizes.  Either model's eigenvalues
give the observed rank.  No solve calls the problem's ``hessian``.

Sketches come from the solve's own Generator (seeded by ``seed``) in
stream order, through a ``sk.RowStream``, which decides when to draw the
next sketch ahead on a worker thread and at what BLAS thread count.

``run`` keeps its sketch state in one variable: ``model`` is None when
the next iteration must build a model at x_k, and a sketched mode draws
a fresh sketch for every model it builds.  A success, a change of l or
the ``every-iteration`` policy drops the model, together with its sketch
and L^{-1} or its Krylov basis, before the next model is built.  A model
that survives a rejected step is reused as it is, since sigma is
``subproblem.solve``'s argument: that iteration draws nothing, evaluates no
Hessian and decomposes nothing, and its iterate is bit for bit the one a
recomputation would give.

A non-finite value f(x_k), gradient, projected derivative or
Hessian-vector product ends the run with status ``NonFiniteDerivative``;
at x0 that leaves an empty trace.
A predicted decrease at or below the rho guard 1e-16 (1 + |f|) on
``_MAX_UNRESOLVED_DECREASES`` consecutive iterations, where sigma would
otherwise double towards overflow, ends it with ``DecreaseUnresolved``.

Every CSV file of the package, a trace here and bench's runs and profile
files, is written by ``write_rows`` and read by ``read_rows``, from one
column-to-type table per file: a trace's comes from ``IterationTrace``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Iterable, List, Optional, Tuple, get_type_hints

import numpy as np

from . import _lapack
from . import sketch as sk
from . import subproblem as sp
from .errors import (
    ConfigError,
    InnerSolverError,
    InvalidDimensionError,
    InvalidInputError,
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

def _setting(default, help: str, choices=None, minimum=None):
    """A SolverConfig field: its CLI flag's help and choices, and the minimum validate holds it to."""
    return field(default=default, metadata={"help": help, "choices": choices, "minimum": minimum})


@dataclass
class SolverConfig:
    """Parameters of the outer loop; defaults follow common practice.

    Each field is one setting of the ``solve`` and ``bench`` commands and
    of their config files; ``validate`` reads its type and metadata alone.
    """

    mode: str = _setting(MODE_RARC_D, "solver variant", MODES)
    sigma0: float = _setting(1.0, "initial regularization weight", minimum=_SIGMA_MIN)
    epsilon: float = _setting(1e-5, "first-order tolerance on ||grad f||", minimum=math.ulp(0.0))
    max_iter: int = _setting(2000, "iteration cap", minimum=0)
    l0: int = _setting(2, "initial (or, for rarc, fixed) sketch size", minimum=1)
    growth_c: int = _setting(1, "sketch growth constant of rarc-d", minimum=1)
    redraw_policy: str = _setting(REDRAW_ON_SUCCESS, "sketch redraw policy", REDRAW_POLICIES)
    seed: int = _setting(0, "solver RNG seed", minimum=0)

    def validate(self) -> None:
        for f in fields(self):
            value, choices, minimum = getattr(self, f.name), f.metadata["choices"], f.metadata["minimum"]
            declared = SETTING_KINDS[f.name]
            kind = (int, float) if declared is float else declared  # a bool is an int, but no setting
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"need {f.name} of type {declared.__name__}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"need a finite {f.name}, got {value}")
            if choices is not None and value not in choices:
                raise ConfigError(f"unknown {f.name} {value!r}; expected one of {choices}")
            if minimum is not None and value < minimum:
                raise ConfigError(f"need {f.name} >= {minimum}, got {value}")

    def solver_id(self) -> str:
        """The mode and l0, then any growth constant other than 1 (rarc-d only) and
        redraw policy other than on-success: ``rarc-d-l02-C2-every-iteration``."""
        if self.mode == MODE_ARC:
            return "arc"
        if self.mode == MODE_RARC:
            head = f"rarc-l{self.l0}"
        else:
            head = f"rarc-d-l0{self.l0}" + (f"-C{self.growth_c}" if self.growth_c != 1 else "")
        return head if self.redraw_policy == REDRAW_ON_SUCCESS else f"{head}-{self.redraw_policy}"


#: SolverConfig field name -> its type, which ``validate`` and the CLI's flags and files read
SETTING_KINDS = get_type_hints(SolverConfig)


@dataclass
class IterationTrace:
    k: int
    f: float
    grad_norm: float
    l_k: int
    r_hat_k: int  # rank of the model's Hessian: T_k for arc, the whitened S H S^T otherwise
    R_hat_k: int
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


#: trace CSV column names and types: IterationTrace's fields, in order
_TRACE_KINDS = get_type_hints(IterationTrace)
TRACE_COLUMNS = tuple(_TRACE_KINDS)


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
    if config.mode != MODE_ARC and config.l0 > d:
        raise InvalidDimensionError(f"l0={config.l0} exceeds problem dimension {d}")
    rows = sk.RowStream(np.random.default_rng(config.seed), d)
    try:
        return _iterate(problem, config, rows)
    finally:
        rows.close()


def _all_finite(a: np.ndarray) -> bool:
    """No entry of ``a`` is NaN or infinite.  One dot product decides unless
    the sum of squares is not finite, which also happens when it overflows."""
    v = a.ravel(order="K")
    with np.errstate(over="ignore"):
        return bool(np.isfinite(v @ v) or np.all(np.isfinite(v)))


def _iterate(problem: ObjectiveProblem, config: SolverConfig, rows: sk.RowStream) -> SolveResult:
    """``run``'s loop, which draws every sketch from ``rows``."""
    d = problem.dim
    identity = config.mode == MODE_ARC  # S = I is never formed: s_mat stays None
    x = np.array(problem.x0, dtype=float, copy=True)
    sigma = config.sigma0
    l = d if identity else config.l0
    r_hat_running = 0
    s_mat: Optional[sk.SketchMatrix] = None  # the sketch of model
    basis: Optional[np.ndarray] = None  # arc: the Krylov basis V_k of model
    linv: Optional[np.ndarray] = None  # L^{-1} of s_mat's Gram L L^T
    model: Optional[sp.SketchedCubicModel] = None  # None: draw and build a model at x
    trace: List[IterationTrace] = []
    cum_rel = 0.0
    cum_time = 0.0
    unresolved = 0  # consecutive iterations whose rho guard failed
    status = STATUS_MAX_ITER
    f = problem.value(x)
    grad = problem.gradient(x)

    for k in range(config.max_iter + 1):
        if not (np.isfinite(f) and np.isfinite(grad).all()):
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
        finite = True
        for redraws in range(_MAX_GRAM_REDRAWS + 1):
            try:
                if model is None:
                    if identity:
                        basis, alpha, beta = sp.lanczos(problem.hmul(x), grad)
                        finite = bool(np.isfinite(alpha).all() and np.isfinite(beta).all())
                    else:
                        s_mat = sk.draw(sk.SCALED_GAUSSIAN, l, d, rows)
                        g_hat = sk.sketch_gradient(s_mat, grad)
                        h_hat = problem.sketched_hessian(x, s_mat.matrix)
                        finite = bool(np.isfinite(g_hat).all() and _all_finite(h_hat))
                    if not finite:
                        break
                    if identity:
                        model = sp.krylov_model(f, gnorm, alpha, beta)
                    else:
                        g_hat, h_hat, linv = sp.whiten(s_mat.gram(), g_hat, h_hat)
                        model = sp.build_model(f, g_hat, h_hat)
                solution = sp.solve(model, sigma)
                break
            except (SingularGramError, InnerSolverError):
                model = s_mat = linv = None
                if identity or redraws == _MAX_GRAM_REDRAWS:
                    break
        if solution is None:
            status = STATUS_INNER_FAILURE if finite else STATUS_NON_FINITE
            cum_time += time.perf_counter() - t0
            break

        # a sketched model decomposed L^{-1} S H S^T L^{-T}, which is congruent
        # to S H S^T and so has its rank (Sylvester's law of inertia).  By
        # Ostrowski's theorem each eigenvalue is scaled by a factor between
        # the extreme eigenvalues of (S S^T)^{-1}, so the relative threshold
        # can rank the two spectra differently only for eigenvalues within
        # cond(S S^T) of it.  arc's spectrum is that of T_k = V_k H V_k^T.
        r_hat = sk.spectrum_rank(model.eigenvalues)
        r_hat_prev = r_hat_running
        r_hat_running = max(r_hat_running, r_hat)

        step = basis.T @ solution.s_hat if identity else s_mat.matrix.T @ (linv.T @ solution.s_hat)
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
                R_hat_k=r_hat_running,
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
            # free the last sketch or Krylov basis before the next model is built
            model = h_hat = s_mat = linv = basis = None

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


def write_rows(path, kinds: Dict[str, type], rows: Iterable[Iterable]) -> None:
    """Write a CSV whose header is the columns of ``kinds`` (column to type, in
    order), then one line per row of cells in that order.  A float cell is
    written as ``repr(float(v))``, which reads back bit for bit."""
    floats = [kind is float for kind in kinds.values()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(kinds)
        writer.writerows([repr(float(v)) if f else v for f, v in zip(floats, row)] for row in rows)


def read_rows(path, what: str, kinds: Dict[str, type]) -> List[Tuple[int, dict]]:
    """The rows of a ``what`` CSV written by ``write_rows``, each as its line
    number and its cells parsed by ``kinds`` (a bool reads ``True`` or
    ``False``), in the order of ``kinds``.  InvalidInputError names the file,
    the line and the column of a missing column, a missing cell or a cell
    that does not parse, and the line of a row longer than the header."""
    parsers = {col: {"True": True, "False": False}.__getitem__ if kind is bool else kind
               for col, kind in kinds.items()}
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [col for col in kinds if col not in (reader.fieldnames or ())]
        if missing:
            raise InvalidInputError(f"{path}:1: not a {what} CSV, missing column(s) {missing}")
        for rec in reader:
            if None in rec:  # DictReader files the cells past the header under None
                raise InvalidInputError(f"{path}:{reader.line_num}: more cells than the header has columns")
            row = {}
            for col, parse in parsers.items():
                cell = rec[col]
                if cell is None:  # the line ends before this column
                    raise InvalidInputError(f"{path}:{reader.line_num}: column {col}: no cell")
                try:
                    row[col] = parse(cell)
                except (KeyError, ValueError):
                    bad = f"{path}:{reader.line_num}: column {col}: cannot parse {cell!r}"
                    raise InvalidInputError(bad) from None
            rows.append((reader.line_num, row))
    return rows


def trace_to_csv(trace: List[IterationTrace], path) -> None:
    """Write one CSV row per iteration, in ``TRACE_COLUMNS`` order (``write_rows``)."""
    write_rows(path, _TRACE_KINDS, (vars(row).values() for row in trace))


def trace_from_csv(path) -> List[IterationTrace]:
    """The rows of a trace CSV written by ``trace_to_csv`` (``read_rows``)."""
    return [IterationTrace(*row.values()) for _, row in read_rows(path, "trace", _TRACE_KINDS)]


def thread_settings() -> dict:
    """The BLAS thread variables (None when unset) and OpenBLAS's live thread count
    (None when ``_lapack`` cannot read it), on which rounding depends, and the cores."""
    return {
        **{name: os.environ.get(name) for name in ONE_BLAS_THREAD},
        "blas_threads": _lapack.blas_threads(),
        "cpu_count": os.cpu_count(),
    }


def summary_dict(problem: ObjectiveProblem, config: SolverConfig, result: SolveResult) -> dict:
    """JSON-serializable run summary: config echo, status, final values
    (null when not finite, so strict JSON holds every summary), step,
    Gram-redraw and hard-case counts, the range of sigma_k (null for an
    empty trace) and the BLAS thread settings of this process."""
    accepted = sum(row.success for row in result.trace)
    sigmas = [row.sigma_k for row in result.trace]
    return {
        "problem": problem.name,
        "dim": problem.dim,
        "solver_id": config.solver_id(),
        "config": asdict(config),
        "status": result.status,
        "iterations": len(result.trace),
        "f_final": result.f_final if math.isfinite(result.f_final) else None,
        "grad_norm_final": result.grad_norm_final if math.isfinite(result.grad_norm_final) else None,
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
