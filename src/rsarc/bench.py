"""Benchmark grids and data profiles over the "relative Hessians seen" budget.

A problem instance counts as solved at tolerance tau once
f(x_k) <= f* + tau (f(x0) - f*); the budget charged is the cumulative
metric (relative Hessians, or the solver loop's ``time.perf_counter``
seconds, ``wall_time_s``) at the first iterate meeting that bar, and
infinity when the bar is never met within the 2000-iteration cap.  Data
profiles report the fraction of instances solved as a function of the
budget.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import InvalidInputError, InvalidProblemError
from .problems import ObjectiveProblem, get_problem
from .solver import ONE_BLAS_THREAD, IterationTrace, SolverConfig, run, thread_settings, trace_to_csv

METRIC_REL_HESSIANS = "rel-hessians"
METRIC_RUNTIME = "runtime"
METRICS = (METRIC_REL_HESSIANS, METRIC_RUNTIME)

#: iteration cap applied when deciding whether an instance was solved
ITERATION_CAP = 2000

#: the tolerances a grid scores when it names none
DEFAULT_TAUS = (1e-2, 1e-5)

#: default budget grid: alpha = 0 plus 400 log-spaced points up to 100
DEFAULT_ALPHA_GRID = np.concatenate(([0.0], np.logspace(-3, 2, 400)))


@dataclass
class BenchmarkRun:
    """Outcome of one (problem instance, solver) pair."""

    problem_id: str
    solver_id: str
    repeat: int
    seed: int  # solver seed; the instance seed is part of problem_id
    n_p: Dict[float, float]  # tolerance -> budget at solve (inf if unsolved)
    status: str


@dataclass
class DataProfile:
    solver_id: str
    tau: float
    alpha_grid: np.ndarray
    pi: np.ndarray


def solved_budget(
    trace: Sequence[IterationTrace],
    f0: float,
    f_star: float,
    tau: float,
    metric: str = METRIC_REL_HESSIANS,
    final_f: Optional[float] = None,
) -> float:
    """Budget spent until the solve bar is first met, or inf.

    Scans the per-iteration trace (capped at 2000 rows); if no recorded
    iterate meets the bar but the run's final point does (``final_f``),
    the full spent budget is charged, since the final point is reached by
    the last recorded iteration.
    """
    if not 0.0 < tau < 1.0:
        raise InvalidProblemError(f"need tau in (0,1), got {tau}")
    if f_star is None or not f0 > f_star:
        raise InvalidProblemError(f"need f0 > f_star, got f0={f0}, f_star={f_star}")
    if metric not in METRICS:
        raise InvalidProblemError(f"unknown metric {metric!r}")
    bar = f_star + tau * (f0 - f_star)
    rows = list(trace)[:ITERATION_CAP]
    for row in rows:
        if row.f <= bar:
            return row.cum_rel_hessians if metric == METRIC_REL_HESSIANS else row.wall_time_s
    if final_f is not None and final_f <= bar and len(trace) <= ITERATION_CAP:
        if not rows:
            return 0.0
        last = rows[-1]
        return last.cum_rel_hessians if metric == METRIC_REL_HESSIANS else last.wall_time_s
    return math.inf


def data_profile(
    runs: Sequence[BenchmarkRun],
    tau: float,
    solver_id: Optional[str] = None,
) -> DataProfile:
    """Fraction of runs solved within budget alpha, per point of DEFAULT_ALPHA_GRID.

    Each run counts as one problem instance; unsolved runs stay in the
    denominator.  When ``solver_id`` is None the runs must all share one.
    Every run must have a budget at ``tau``.
    """
    runs = list(runs)
    if not runs:
        raise InvalidInputError("no benchmark runs given")
    ids = {r.solver_id for r in runs}
    if solver_id is None:
        if len(ids) != 1:
            raise InvalidInputError(f"runs mix solvers {sorted(ids)}; pass solver_id")
        solver_id = next(iter(ids))
    else:
        runs = [r for r in runs if r.solver_id == solver_id]
        if not runs:
            raise InvalidInputError(f"no runs for solver {solver_id!r}")
    if any(tau not in r.n_p for r in runs):
        known = sorted({t for r in runs for t in r.n_p}, reverse=True)
        raise InvalidInputError(f"tau {tau!r} is not a tolerance of every run; runs have {known}")
    budgets = np.array([r.n_p[tau] for r in runs])
    pi = np.array([np.mean(budgets <= a) for a in DEFAULT_ALPHA_GRID])
    return DataProfile(solver_id, tau, DEFAULT_ALPHA_GRID, pi)


def _run_instance(
    instance: str, repeat: int, jobs: Sequence[tuple], taus: Sequence[float], metric: str
) -> List[BenchmarkRun]:
    """Worker: build one instance from its selector and run each of its
    ``(config, trace_path)`` jobs on it.  When ``get_problem`` raises, every
    job is recorded as unsolved with status ``Error:<type>``."""
    try:
        problem = get_problem(instance)
    except Exception as exc:  # noqa: BLE001 - isolate per-instance failures
        status = f"Error:{type(exc).__name__}"
        return [BenchmarkRun(instance, c.solver_id(), repeat, c.seed, dict.fromkeys(taus, math.inf), status)
                for c, _ in jobs]
    return [_run_one(instance, problem, config, repeat, taus, metric, path) for config, path in jobs]


def _run_one(
    instance: str,
    problem: ObjectiveProblem,
    config: SolverConfig,
    repeat: int,
    taus: Sequence[float],
    metric: str,
    trace_path: Optional[str],
) -> BenchmarkRun:
    """Run, write the trace, score all taus.  A run that raises is recorded as
    unsolved with status ``Error:<type>``; one that cannot be scored (no f*
    below f(x0)) keeps its trace and status, with every budget at inf."""
    budgets = dict.fromkeys(taus, math.inf)
    try:
        result = run(problem, config)
    except Exception as exc:  # noqa: BLE001 - isolate per-run failures
        return BenchmarkRun(instance, config.solver_id(), repeat, config.seed, budgets,
                            f"Error:{type(exc).__name__}")
    if trace_path:
        trace_to_csv(result.trace, trace_path)
    f0 = problem.value(problem.x0)
    try:
        budgets = {tau: solved_budget(result.trace, f0, problem.f_star, tau, metric, final_f=result.f_final)
                   for tau in taus}
    except InvalidProblemError:
        pass  # no f* to score against: the run stays unsolved
    return BenchmarkRun(instance, config.solver_id(), repeat, config.seed, budgets, result.status)


def _instance_selector(selector: str, instance_seed: int) -> str:
    """Inject the per-repeat augmentation seed into a low-rank selector."""
    if selector.lower().startswith("l-") and "seed=" not in selector:
        return f"{selector}:seed={instance_seed}"
    return selector


def solver_seed(seed_base: int, run_index: int) -> int:
    """Deterministic per-run solver seed derived from the grid seed."""
    ss = np.random.SeedSequence([seed_base, run_index])
    return int(ss.generate_state(1)[0])


def check_grid(problems, solver_configs, repeats, seed_base, taus=DEFAULT_TAUS,
               metric=METRIC_REL_HESSIANS, workers=1) -> None:
    """Raise InvalidInputError unless ``run_grid`` accepts these arguments."""
    if repeats < 1:
        raise InvalidInputError(f"need repeats >= 1, got {repeats}")
    if seed_base < 0:
        raise InvalidInputError(f"need seed_base >= 0, got {seed_base}")
    if not problems or not solver_configs:
        raise InvalidInputError("need at least one problem and one solver config")
    if metric not in METRICS:
        raise InvalidInputError(f"unknown metric {metric!r}; expected one of {METRICS}")
    if workers < 1:
        raise InvalidInputError(f"need workers >= 1, got {workers}")
    if not all(0.0 < tau < 1.0 for tau in taus):
        raise InvalidInputError(f"need every tau in (0,1), got {list(taus)}")
    if len(set(taus)) != len(taus):
        raise InvalidInputError(f"repeated tau in {list(taus)}; each run keeps one budget per tau")
    ids = [config.solver_id() for config in solver_configs]
    shared = sorted({i for i in ids if ids.count(i) > 1})
    if shared:
        raise InvalidInputError(f"solver configs share the id(s) {shared}; their runs would merge")
    for config in solver_configs:
        config.validate()


def run_grid(
    problems: Sequence[str],
    solver_configs: Sequence[SolverConfig],
    repeats: int,
    seed_base: int,
    taus: Sequence[float] = DEFAULT_TAUS,
    metric: str = METRIC_REL_HESSIANS,
    out_dir: Optional[str] = None,
    workers: int = 1,
) -> List[BenchmarkRun]:
    """Run every (problem, solver, repeat) combination, reproducibly.

    ``problems`` are registry selectors without an instance seed; each
    repeat augments low-rank problems with a fresh embedding seeded by
    seed_base + repeat, and gets its own solver seed.  Each (selector,
    repeat) instance is built once and runs every config; the runs come back
    in (selector, config, repeat) order.  Failed runs are recorded as
    unsolved rather than aborting the grid.  ``workers > 1`` runs the
    instances in spawned processes with one BLAS thread each, as a serial
    run under ``ONE_BLAS_THREAD`` would; scripts need a ``__main__`` guard.
    """
    check_grid(problems, solver_configs, repeats, seed_base, taus, metric, workers)
    tasks = []  # one per (selector, repeat): its instance and its jobs, seeded in job order
    for i, selector in enumerate(problems):
        for rep in range(repeats):
            instance = _instance_selector(selector, seed_base + rep)
            jobs = []
            for j, config in enumerate(solver_configs):
                cfg = replace(config, seed=solver_seed(seed_base, (i * len(solver_configs) + j) * repeats + rep))
                trace_path = None
                if out_dir is not None:
                    fname = f"trace_{file_stem(instance)}_{file_stem(cfg.solver_id())}_rep{rep}.csv"
                    trace_path = os.path.join(out_dir, fname)
                jobs.append((cfg, trace_path))
            tasks.append((instance, rep, jobs, tuple(taus), metric))

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    columns = list(zip(*tasks))
    if workers == 1:
        done = list(map(_run_instance, *columns))
    else:
        # imported here: multiprocessing adds about 2 MB to every ``import rsarc``
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned, not forked (which keeps this process's BLAS): workers load it anew
        saved = {name: os.environ.pop(name, None) for name in ONE_BLAS_THREAD}
        os.environ.update(ONE_BLAS_THREAD)
        try:
            spawn = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
                done = list(pool.map(_run_instance, *columns))
        finally:
            for name in ONE_BLAS_THREAD:
                del os.environ[name]
            os.environ.update({name: value for name, value in saved.items() if value is not None})
    # done[i * repeats + rep][j] is job (i, j, rep)
    return [done[i * repeats + rep][j] for i in range(len(problems))
            for j in range(len(solver_configs)) for rep in range(repeats)]


def grid_threads(workers: int) -> dict:
    """The BLAS thread settings ``run_grid`` runs its jobs under: this process's,
    or one thread per worker when ``workers > 1``."""
    return {**thread_settings(), **({**ONE_BLAS_THREAD, "blas_threads": 1} if workers > 1 else {})}


def file_stem(name: str) -> str:
    """``name`` (a selector or solver id) as a file-name part: ':' to '_', '=' dropped."""
    return name.replace(":", "_").replace("=", "")


#: runs CSV column names, one row per (run, tolerance)
RUNS_COLUMNS = ("problem_id", "solver_id", "repeat", "seed", "tau", "N_p", "status")


def write_runs_csv(runs: Sequence[BenchmarkRun], path) -> None:
    """One row per (run, tolerance): problem, solver, repeat, seed, tau, N_p."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUNS_COLUMNS)
        for r in runs:
            for tau in sorted(r.n_p, reverse=True):
                writer.writerow(
                    [r.problem_id, r.solver_id, r.repeat, r.seed, repr(tau), repr(r.n_p[tau]), r.status]
                )


def read_runs_csv(path) -> List[BenchmarkRun]:
    """Runs from a CSV written by ``write_runs_csv``; InvalidInputError names
    the missing columns, or the line, column and value of a number that does
    not parse."""
    numbers = {"repeat": int, "seed": int, "tau": float, "N_p": float}
    by_key: Dict[tuple, BenchmarkRun] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in RUNS_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise InvalidInputError(f"{path}: not a runs CSV, missing column(s) {missing}")
        for rec in reader:
            for col, kind in numbers.items():
                try:
                    rec[col] = kind(rec[col])
                except (TypeError, ValueError):
                    bad = f"{path}:{reader.line_num}: column {col}: cannot parse {rec[col]!r}"
                    raise InvalidInputError(bad) from None
            key = (rec["problem_id"], rec["solver_id"], rec["repeat"])
            run_rec = by_key.get(key)
            if run_rec is None:
                run_rec = BenchmarkRun(
                    problem_id=rec["problem_id"],
                    solver_id=rec["solver_id"],
                    repeat=rec["repeat"],
                    seed=rec["seed"],
                    n_p={},
                    status=rec["status"],
                )
                by_key[key] = run_rec
            run_rec.n_p[rec["tau"]] = rec["N_p"]
    return list(by_key.values())


def write_profile_csv(profile: DataProfile, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "pi"])
        for a, p in zip(profile.alpha_grid, profile.pi):
            writer.writerow([repr(float(a)), repr(float(p))])
