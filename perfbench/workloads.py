"""The benchmark's workloads, one timed pass over each, and the output checks.

Every workload is a set of solves with the criterion-6/9 suite settings,
scored against the paper's data-profile bars and written out the way the
``rsarc bench`` and ``rsarc profile`` commands write them: a runs CSV and
one data-profile CSV per solver and tolerance.  Inputs come only from the
workload seed, with the same derivation ``run_grid`` uses: the instance of
repeat ``r`` is embedded with seed ``seed + r`` and job ``i`` (problems,
then solvers, then repeats) gets solver seed ``solver_seed(seed, i)``.
"""

from __future__ import annotations

import csv
import math
import os
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

#: solver settings shared by every solve (the criterion-6/9 suite)
SUITE = dict(l0=2, growth_c=1, epsilon=1e-5, max_iter=2000, sigma0=10.0)
#: data-profile tolerances scored for every solve
TAUS = (1e-2, 1e-5)
#: the paper's data-profile bar for counting an instance as solved
SOLVED_TAU = 1e-2
#: the bar a GradientTolReached solve must meet unless it ends in a local minimum
CHECK_TAU = 1e-5


@dataclass(frozen=True)
class Workload:
    name: str
    problems: Tuple[str, ...]  # base problems, each lifted as l-NAME:N=n:d=d
    n: int
    d: int
    modes: Tuple[str, ...]
    repeats: int
    grid: bool  # solved through run_grid, which builds its instances itself


#: the reason for each workload is its "why" in BENCHMARK.json
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("lowrank-rarcd", ("ARWHEAD", "ENGVAL1", "POWER"), 100, 2000, ("rarc-d",), 2, False),
        Workload("fullspace-arc", ("ARWHEAD", "ENGVAL1"), 100, 1000, ("arc",), 2, False),
        Workload(
            "profile-grid", ("ARWHEAD", "COSINE", "ENGVAL1", "POWER"), 50, 500, ("arc", "rarc-d"), 2, True
        ),
    )
}


@dataclass
class Solve:
    """One solve of a pass: its inputs, outcome and scoring."""

    problem: object
    config: object
    result: Optional[object]  # SolveResult, None when the solve raised
    seconds: float
    run: object  # BenchmarkRun as scored by the bench layer


@dataclass
class Pass:
    wall_s: float
    solves: List[Solve]
    out_dir: str


def jobs(rs, workload: Workload, seed: int) -> List[Tuple[str, int, object]]:
    """(instance selector, repeat, solver config) in run_grid's job order."""
    out = []
    index = 0
    for name in workload.problems:
        for mode in workload.modes:
            for rep in range(workload.repeats):
                selector = f"l-{name}:N={workload.n}:d={workload.d}:seed={seed + rep}"
                config = rs.solver.SolverConfig(
                    mode=mode, seed=rs.bench.solver_seed(seed, index), **SUITE
                )
                out.append((selector, rep, config))
                index += 1
    return out


def build_instances(rs, workload: Workload, seed: int) -> list:
    """The workload's problem instances: one QR embedding each."""
    return [rs.problems.get_problem(selector) for selector, _, _ in jobs(rs, workload, seed)]


def _solve_direct(rs, workload, seed, instances, wrap_problem) -> List[Solve]:
    solves = []
    for (_, rep, config), problem in zip(jobs(rs, workload, seed), instances):
        problem = wrap_problem(problem)
        n_p = {tau: math.inf for tau in TAUS}
        t0 = time.perf_counter()
        try:
            result = rs.solver.run(problem, config)
        except Exception as exc:  # noqa: BLE001 - a raising solve is counted, not fatal
            result, status = None, f"Error:{type(exc).__name__}"
        else:
            status = result.status
        seconds = time.perf_counter() - t0
        if result is not None:
            f0 = problem.value(problem.x0)
            for tau in TAUS:
                n_p[tau] = rs.bench.solved_budget(
                    result.trace, f0, problem.f_star, tau, final_f=result.f_final
                )
        run = rs.bench.BenchmarkRun(problem.name, config.solver_id(), rep, config.seed, n_p, status)
        solves.append(Solve(problem, config, result, seconds, run))
    return solves


def _solve_grid(rs, workload, seed) -> List[Solve]:
    """run_grid over the workload, recording each solve's inputs and result.

    ``bench._run_one`` looks ``run`` up in its module globals at call time,
    so a recording wrapper there sees every (problem, config, result).
    """
    recorded = []
    grid_run = rs.bench.run

    def recording_run(problem, config):
        t0 = time.perf_counter()
        try:
            result = grid_run(problem, config)
        except Exception:
            recorded.append((problem, config, None, time.perf_counter() - t0))
            raise
        recorded.append((problem, config, result, time.perf_counter() - t0))
        return result

    configs = [rs.solver.SolverConfig(mode=mode, **SUITE) for mode in workload.modes]
    selectors = [f"l-{name}:N={workload.n}:d={workload.d}" for name in workload.problems]
    rs.bench.run = recording_run
    try:
        runs = rs.bench.run_grid(selectors, configs, workload.repeats, seed, taus=TAUS, workers=1)
    finally:
        rs.bench.run = grid_run
    # instance names equal their selectors; a job whose get_problem raised has no record
    by_job = {(rec[0].name, rec[1].seed): rec for rec in recorded}
    solves = []
    for run in runs:
        problem, config, result, seconds = by_job.get((run.problem_id, run.seed), (None,) * 3 + (0.0,))
        solves.append(Solve(problem, config, result, seconds, run))
    return solves


def run_pass(rs, workload: Workload, seed: int, instances, out_dir: str, wrap_problem=None) -> Pass:
    """One timed pass: every solve, its scoring, the data profiles and the CSVs."""
    wrap_problem = wrap_problem or (lambda p: p)
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    if workload.grid:
        solves = _solve_grid(rs, workload, seed)
    else:
        solves = _solve_direct(rs, workload, seed, instances, wrap_problem)
    runs = [s.run for s in solves]
    rs.bench.write_runs_csv(runs, os.path.join(out_dir, "runs.csv"))
    for solver_id in sorted({r.solver_id for r in runs}):
        for tau in TAUS:
            profile = rs.bench.data_profile(runs, tau, solver_id=solver_id)
            rs.bench.write_profile_csv(profile, os.path.join(out_dir, _profile_name(solver_id, tau)))
    return Pass(time.perf_counter() - t0, solves, out_dir)


def _profile_name(solver_id: str, tau: float) -> str:
    return f"profile_{solver_id}_{tau:g}.csv"


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def check_solve(rs, solve: Solve) -> List[str]:
    """Problems with one solve's output; an empty list means it is correct.

    A GradientTolReached solve must end with ||g|| <= epsilon and meet the
    tau=1e-5 bar against f*, or else sit at a local minimizer
    (lambda_min of the Hessian >= -sqrt(epsilon)): the method guarantees
    second-order stationarity, not the global minimum, and COSINE has
    spurious local minima.  Every solve must report values that match its
    final point, never increase f along accepted steps, and charge exactly
    sum (l_k/d)^2.
    """
    run, result, problem, config = solve.run, solve.result, solve.problem, solve.config
    label = f"{run.problem_id} {run.solver_id} rep{run.repeat}"
    if result is None:
        return [f"{label}: raised ({run.status})"]
    errors = []
    x = result.x_final
    f0 = problem.value(problem.x0)
    if not np.all(np.isfinite(x)) or not math.isfinite(result.f_final):
        return [f"{label}: non-finite final point or value"]
    if not _close(result.f_final, problem.value(x)):
        errors.append(f"{label}: f_final {result.f_final!r} != f(x_final)")
    gnorm = float(np.linalg.norm(problem.gradient(x)))
    if not _close(result.grad_norm_final, gnorm):
        errors.append(f"{label}: grad_norm_final {result.grad_norm_final!r} != ||g(x_final)||")
    if result.f_final > f0:
        errors.append(f"{label}: f_final {result.f_final!r} above f0 {f0!r}")
    fs = [row.f for row in result.trace] + [result.f_final]
    if any(b > a for a, b in zip(fs, fs[1:])):
        errors.append(f"{label}: f increased along the trace")
    d = problem.dim
    budget = sum((row.l_k / d) ** 2 for row in result.trace)
    charged = result.trace[-1].cum_rel_hessians if result.trace else 0.0
    if not math.isclose(budget, charged, rel_tol=1e-9):
        errors.append(f"{label}: charged {charged!r} relative Hessians, trace gives {budget!r}")
    if len(result.trace) > config.max_iter:
        errors.append(f"{label}: {len(result.trace)} iterations exceed max_iter")
    if result.status == rs.solver.STATUS_GRADIENT_TOL:
        if gnorm > config.epsilon:
            errors.append(f"{label}: GradientTolReached with ||g|| = {gnorm:.3e}")
        bar = problem.f_star + CHECK_TAU * (f0 - problem.f_star)
        if result.f_final > bar:
            lam_min = float(np.linalg.eigvalsh(problem.hessian(x))[0])
            if lam_min < -math.sqrt(config.epsilon):
                errors.append(
                    f"{label}: misses the tau=1e-5 bar and is not a local minimizer "
                    f"(lambda_min {lam_min:.3e})"
                )
    elif result.status == rs.solver.STATUS_MAX_ITER and len(result.trace) != config.max_iter:
        errors.append(f"{label}: MaxIter after {len(result.trace)} iterations")
    # the bench layer's scoring, against a direct scan of the trace
    for tau in TAUS:
        bar = problem.f_star + tau * (f0 - problem.f_star)
        reached = min(fs) <= bar
        if math.isfinite(run.n_p[tau]) != reached:
            errors.append(f"{label}: N_p[{tau:g}] = {run.n_p[tau]!r} but bar reached = {reached}")
        expected = rs.bench.solved_budget(
            result.trace, f0, problem.f_star, tau, final_f=result.f_final
        )
        if run.n_p[tau] != expected:
            errors.append(f"{label}: N_p[{tau:g}] = {run.n_p[tau]!r}, expected {expected!r}")
    return errors


def check_files(rs, p: Pass) -> List[str]:
    """The CSVs a pass wrote: row counts, round trip, and monotone profiles."""
    errors = []
    runs = [s.run for s in p.solves]
    path = os.path.join(p.out_dir, "runs.csv")
    with open(path, newline="") as fh:
        rows = sum(1 for _ in csv.DictReader(fh))
    if rows != len(runs) * len(TAUS):
        errors.append(f"runs.csv has {rows} rows, expected {len(runs) * len(TAUS)}")
    back = {(r.problem_id, r.solver_id, r.repeat): r.n_p for r in rs.bench.read_runs_csv(path)}
    for r in runs:
        if back.get((r.problem_id, r.solver_id, r.repeat)) != r.n_p:
            errors.append(f"runs.csv does not round-trip {r.problem_id} {r.solver_id} rep{r.repeat}")
    for solver_id in sorted({r.solver_id for r in runs}):
        for tau in TAUS:
            with open(os.path.join(p.out_dir, _profile_name(solver_id, tau)), newline="") as fh:
                pi = np.array([float(rec["pi"]) for rec in csv.DictReader(fh)])
            if pi.size == 0 or np.any(np.diff(pi) < 0) or pi[0] < 0 or pi[-1] > 1:
                errors.append(f"profile {solver_id} tau={tau:g}: pi not nondecreasing in [0,1]")
    return errors


def signature(p: Pass) -> list:
    """What must repeat exactly between passes over the same inputs."""
    return [
        (
            s.run.problem_id,
            s.run.solver_id,
            s.run.status,
            len(s.result.trace) if s.result else -1,
            s.result.f_final if s.result else None,
            tuple(sorted(s.run.n_p.items())),
        )
        for s in p.solves
    ]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def solve_key(s: Solve) -> tuple:
    return (s.run.problem_id, s.run.solver_id, s.run.repeat)


def counts(rs, p: Pass) -> dict:
    """The exact, timing-free outcomes of a pass."""
    solves = p.solves
    return {
        "iterations": sum(len(s.result.trace) for s in solves if s.result),
        "rel_hessians": sum(
            s.result.trace[-1].cum_rel_hessians for s in solves if s.result and s.result.trace
        ),
        "solved_frac": sum(math.isfinite(s.run.n_p[SOLVED_TAU]) for s in solves) / len(solves),
        "unconverged": {
            solve_key(s)
            for s in solves
            if s.result is None or s.result.status != rs.solver.STATUS_GRADIENT_TOL
        },
    }


def ms_per_iter_gmean(p: Pass) -> float:
    """Geometric mean over solves of each solve's wall ms per iteration.

    Each solve weighs the same however many iterations it ran, so the
    figure does not swing with how many runs of a workload happen to stall.
    """
    per_solve = [
        1000.0 * s.seconds / max(len(s.result.trace), 1) for s in p.solves if s.result is not None
    ]
    return statistics.geometric_mean(per_solve)
