import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rsarc import (
    InnerSolverError,
    InvalidInputError,
    InvalidProblemError,
    SolverConfig,
    builtin_problem,
    data_profile,
    get_problem,
    read_runs_csv,
    run,
    run_grid,
    solved_budget,
    trace_from_csv,
    write_runs_csv,
)
from rsarc import bench
from rsarc.bench import DEFAULT_TAUS, METRIC_REL_HESSIANS, METRIC_RUNTIME, BenchmarkRun, solver_seed
from rsarc.solver import ONE_BLAS_THREAD, IterationTrace

SRC = Path(__file__).resolve().parents[1] / "src"


def make_trace(fs, l=1, d=1):
    rows = []
    cum = 0.0
    for k, f in enumerate(fs):
        cum += (l / d) ** 2
        rows.append(
            IterationTrace(
                k=k, f=f, grad_norm=1.0, l_k=l, r_hat_k=1, R_hat_k=1,
                sigma_k=1.0, rho_k=1.0, predicted_decrease=1.0, success=True, step_norm=1.0,
                inner_iterations=1, mu=1.0, hard_case=False, gram_redraws=0,
                cum_rel_hessians=cum, wall_time_s=0.001 * (k + 1),
            )
        )
    return rows


def test_budget_immediate_solve_charges_first_iteration():
    # f0 = 10, f* = 0, tau = 0.5: the very first iterate meets the bar
    trace = make_trace([4.0, 3.0], l=2, d=10)
    assert solved_budget(trace, 10.0, 0.0, 0.5) == pytest.approx((2 / 10) ** 2)


def test_budget_unsolved_is_infinite():
    trace = make_trace([9.0] * 50)
    assert solved_budget(trace, 10.0, 0.0, 0.5) == math.inf


def test_budget_iteration_cap():
    # the bar is met only beyond the 2000-iteration cap
    fs = [9.0] * 2000 + [1.0]
    assert solved_budget(make_trace(fs), 10.0, 0.0, 0.5) == math.inf


def test_budget_identity_sketch_counts_iterations():
    # with l = d each iteration charges exactly one relative Hessian
    trace = make_trace([10.0, 8.0, 5.0, 4.0], l=7, d=7)
    assert solved_budget(trace, 10.0, 0.0, 0.5) == 3.0  # row k=2 meets f <= 5


def test_budget_final_point_fallback():
    trace = make_trace([10.0, 8.0])
    assert solved_budget(trace, 10.0, 0.0, 0.5, final_f=4.0) == 2.0
    assert solved_budget(trace, 10.0, 0.0, 0.5, final_f=6.0) == math.inf
    assert solved_budget([], 10.0, 0.0, 0.5, final_f=4.0) == 0.0


def test_budget_runtime_metric():
    trace = make_trace([10.0, 4.0])
    assert solved_budget(trace, 10.0, 0.0, 0.5, metric=METRIC_RUNTIME) == pytest.approx(0.002)


def test_budget_input_validation():
    trace = make_trace([1.0])
    with pytest.raises(InvalidProblemError):
        solved_budget(trace, 1.0, 2.0, 0.5)
    with pytest.raises(InvalidProblemError):
        solved_budget(trace, 2.0, None, 0.5)
    with pytest.raises(InvalidProblemError):
        solved_budget(trace, 2.0, 1.0, 1.5)
    with pytest.raises(InvalidProblemError):
        solved_budget(trace, 2.0, 1.0, 0.5, metric="bogus")


def test_budget_conservation_on_real_run():
    p = builtin_problem("QUADRANK", 8)
    res = run(p, SolverConfig(mode="arc", epsilon=1e-10))
    f0 = p.value(p.x0)
    tau = 1e-2
    bar = p.f_star + tau * (f0 - p.f_star)
    got = solved_budget(res.trace, f0, p.f_star, tau, final_f=res.f_final)
    rows = [t for t in res.trace if t.f <= bar]
    if rows:
        assert got == rows[0].cum_rel_hessians
    else:
        assert got == res.trace[-1].cum_rel_hessians


def test_budget_monotone_in_tau():
    p = builtin_problem("QUADRANK", 8)
    res = run(p, SolverConfig(mode="arc", epsilon=1e-12))
    f0 = p.value(p.x0)
    loose = solved_budget(res.trace, f0, p.f_star, 1e-2, final_f=res.f_final)
    tight = solved_budget(res.trace, f0, p.f_star, 1e-6, final_f=res.f_final)
    assert loose <= tight < math.inf


def make_run(n_p, solver="s", problem="p", repeat=0):
    return BenchmarkRun(problem_id=problem, solver_id=solver, repeat=repeat,
                        seed=0, n_p=n_p, status="GradientTolReached")


def test_profile_all_solved_at_zero():
    runs = [make_run({0.5: 0.0}, repeat=i) for i in range(4)]
    prof = data_profile(runs, 0.5)
    assert np.all(prof.pi == 1.0)
    assert prof.alpha_grid[0] == 0.0


def test_profile_none_solved():
    runs = [make_run({0.5: math.inf}, repeat=i) for i in range(4)]
    prof = data_profile(runs, 0.5)
    assert np.all(prof.pi == 0.0)


def test_profile_half_solved():
    runs = [make_run({0.5: 1.0}), make_run({0.5: math.inf}, repeat=1)]
    prof = data_profile(runs, 0.5)
    for a, p in zip(prof.alpha_grid, prof.pi):
        assert p == (0.5 if a >= 1.0 else 0.0)


def test_profile_monotone_and_bounded():
    rng = np.random.default_rng(1)
    runs = [make_run({0.5: float(b)}, repeat=i)
            for i, b in enumerate(rng.uniform(0, 50, size=20))]
    prof = data_profile(runs, 0.5)
    assert np.all(np.diff(prof.pi) >= 0)
    assert np.all((0 <= prof.pi) & (prof.pi <= 1))


def test_profile_input_validation():
    with pytest.raises(InvalidInputError):
        data_profile([], 0.5)
    mixed = [make_run({0.5: 1.0}, solver="a"), make_run({0.5: 1.0}, solver="b")]
    with pytest.raises(InvalidInputError):
        data_profile(mixed, 0.5)
    prof = data_profile(mixed, 0.5, solver_id="a")
    assert prof.solver_id == "a"


def grid_inputs():
    problems = ["QUADRANK:d=8:rank=8", "l-QUADRANK:N=6:d=20", "l-ARWHEAD:N=6:d=18"]
    configs = [
        SolverConfig(mode="arc", epsilon=1e-7),
        SolverConfig(mode="rarc-d", l0=2, epsilon=1e-7),
    ]
    return problems, configs


def test_grid_cardinality_and_budgets():
    problems, configs = grid_inputs()
    runs = run_grid(problems, configs, repeats=5, seed_base=0, taus=(1e-2,))
    assert len(runs) == 3 * 2 * 5
    solved = [r for r in runs if math.isfinite(r.n_p[1e-2])]
    assert len(solved) == len(runs)  # these small problems all solve


def test_grid_deterministic_rerun(tmp_path):
    problems, configs = grid_inputs()
    runs1 = run_grid(problems, configs, repeats=2, seed_base=3, taus=(1e-2, 1e-5))
    runs2 = run_grid(problems, configs, repeats=2, seed_base=3, taus=(1e-2, 1e-5))
    assert [r.n_p for r in runs1] == [r.n_p for r in runs2]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_runs_csv(runs1, p1)
    write_runs_csv(runs2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_grid_rejects_unknown_metric():
    problems, configs = grid_inputs()
    with pytest.raises(InvalidInputError, match="bogus"):
        run_grid(problems, configs, repeats=1, seed_base=0, metric="bogus")


def test_grid_seed_base_changes_instances():
    problems = ["l-QUADRANK:N=6:d=20"]
    configs = [SolverConfig(mode="rarc-d", l0=2, epsilon=1e-7)]
    a = run_grid(problems, configs, repeats=1, seed_base=0, taus=(1e-2,))
    b = run_grid(problems, configs, repeats=1, seed_base=99, taus=(1e-2,))
    assert a[0].problem_id != b[0].problem_id


def test_grid_records_failures_without_aborting(monkeypatch):
    # an instance that cannot be built fails each of its jobs, and a run that
    # raises fails only itself; the grid goes on
    solve = bench.run

    def refuse_rarc_d(problem, config):
        if config.mode == "rarc-d":
            raise InnerSolverError("refused")
        return solve(problem, config)

    monkeypatch.setattr(bench, "run", refuse_rarc_d)
    configs = [SolverConfig(mode="arc", epsilon=1e-7), SolverConfig(mode="rarc-d", epsilon=1e-7)]
    runs = run_grid(["NOSUCH:N=7", "QUADRANK:d=6:rank=6"], configs, repeats=1, seed_base=0, taus=(1e-2,))
    assert [r.status for r in runs] == ["Error:UnsupportedProblemError"] * 2 + [
        "GradientTolReached", "Error:InnerSolverError"]
    assert [math.isfinite(r.n_p[1e-2]) for r in runs] == [False, False, True, False]


def test_a_run_that_cannot_be_scored_keeps_its_trace_and_status(tmp_path):
    # ENGVAL1's optimum is catalogued only for N in {50, 100}
    config = SolverConfig(mode="rarc-d")
    runs = run_grid(["ENGVAL1:N=30", "ARWHEAD:N=30"], [config], repeats=1, seed_base=0, out_dir=str(tmp_path))
    unscored = runs[0]
    alone = run(get_problem("ENGVAL1:N=30"), dataclasses.replace(config, seed=unscored.seed))
    assert alone.status == unscored.status == "GradientTolReached"
    assert unscored.n_p == {tau: math.inf for tau in DEFAULT_TAUS}
    traced = trace_from_csv(tmp_path / "trace_ENGVAL1_N30_rarc-d-l02_rep0.csv")
    assert [dataclasses.replace(row, wall_time_s=0.0) for row in traced] == [
        dataclasses.replace(row, wall_time_s=0.0) for row in alone.trace]
    assert runs[1].status == "GradientTolReached" and all(map(math.isfinite, runs[1].n_p.values()))


def test_grid_builds_each_instance_once_and_keeps_the_job_order(monkeypatch):
    built = []
    build = bench.get_problem

    def counted(selector):
        built.append(selector)
        return build(selector)

    monkeypatch.setattr(bench, "get_problem", counted)
    problems = ["l-ARWHEAD:N=10:d=40", "l-POWER:N=10:d=40"]
    configs = [SolverConfig(mode=mode, epsilon=1e-6) for mode in ("arc", "rarc-d")]
    runs = run_grid(problems, configs, repeats=3, seed_base=4, taus=(1e-2,))
    assert sorted(built) == [f"{p}:seed={seed}" for p in problems for seed in (4, 5, 6)]
    jobs = itertools.product(problems, configs, range(3))
    assert [(r.problem_id, r.solver_id, r.repeat, r.seed) for r in runs] == [
        (f"{p}:seed={4 + rep}", c.solver_id(), rep, solver_seed(4, index))
        for index, (p, c, rep) in enumerate(jobs)]


def test_grid_worker_pool_matches_serial():
    problems = ["QUADRANK:d=8:rank=8", "l-QUADRANK:N=6:d=20"]
    configs = [SolverConfig(mode="rarc-d", l0=2, epsilon=1e-7)]
    serial = run_grid(problems, configs, repeats=2, seed_base=1, taus=(1e-2,))
    before = {name: os.environ.get(name) for name in ONE_BLAS_THREAD}
    pooled = run_grid(problems, configs, repeats=2, seed_base=1, taus=(1e-2,), workers=2)
    assert [r.n_p for r in serial] == [r.n_p for r in pooled]
    # the workers' thread setting does not leak into this process's environment
    assert {name: os.environ.get(name) for name in ONE_BLAS_THREAD} == before


#: writes the runs CSV of a small grid; argv: workers, output path
_GRID_SCRIPT = """
import sys
from rsarc import SolverConfig, run_grid, write_runs_csv

configs = [SolverConfig(mode=mode, epsilon=1e-6) for mode in ("arc", "rarc-d")]
problems = ["l-ARWHEAD:N=10:d=40", "l-ENGVAL1:N=10:d=40"]
runs = run_grid(problems, configs, repeats=2, seed_base=0, workers=int(sys.argv[1]))
write_runs_csv(runs, sys.argv[2])
"""


def test_grid_workers_equal_a_single_thread_serial_run(tmp_path):
    # the pool's workers run one BLAS thread each, whatever this process has
    env = {k: v for k, v in os.environ.items() if k not in ONE_BLAS_THREAD}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    outputs = {}
    for workers, run_env in ((1, dict(env, **ONE_BLAS_THREAD)), (2, env)):
        outputs[workers] = tmp_path / f"runs_{workers}.csv"
        cmd = [sys.executable, "-c", _GRID_SCRIPT, str(workers), str(outputs[workers])]
        subprocess.run(cmd, env=run_env, check=True, timeout=300)
    assert outputs[1].read_bytes() == outputs[2].read_bytes()
    assert len(outputs[1].read_text().splitlines()) == 1 + 2 * 2 * 2 * 2  # header + runs x taus


def test_runs_csv_roundtrip(tmp_path):
    problems, configs = grid_inputs()
    runs = run_grid(problems, configs, repeats=2, seed_base=0, taus=(1e-2, 1e-5))
    path = tmp_path / "runs.csv"
    write_runs_csv(runs, path)
    back = read_runs_csv(path)
    key = lambda r: (r.problem_id, r.solver_id, r.repeat)
    assert sorted(map(key, back)) == sorted(map(key, runs))
    orig = {key(r): r.n_p for r in runs}
    for r in back:
        assert r.n_p == orig[key(r)]


@pytest.mark.parametrize("column, cell", [("repeat", "1.5"), ("seed", "x"), ("tau", ""), ("N_p", "never")])
def test_a_runs_cell_that_does_not_parse_is_named(tmp_path, column, cell):
    path = tmp_path / "runs.csv"
    write_runs_csv([BenchmarkRun("QUADRANK:d=6", "arc", 0, 0, {1e-2: 1.0, 1e-5: 2.0}, "GradientTolReached")], path)
    header, first, second = path.read_text().splitlines()
    fields = second.split(",")
    fields[header.split(",").index(column)] = cell
    path.write_text("\n".join([header, first, ",".join(fields)]) + "\n")
    with pytest.raises(InvalidInputError, match=f"runs.csv:3: column {column}: cannot parse {cell!r}$"):
        read_runs_csv(path)


def test_a_runs_row_without_a_cell_is_named(tmp_path):
    path = tmp_path / "runs.csv"
    write_runs_csv([BenchmarkRun("QUADRANK:d=6", "arc", 0, 0, {1e-2: 1.0, 1e-5: 2.0}, "GradientTolReached")], path)
    header, first, second = path.read_text().splitlines()
    path.write_text("\n".join([header, first, second.rsplit(",", 1)[0]]) + "\n")
    with pytest.raises(InvalidInputError, match="runs.csv:3: column status: no cell$"):
        read_runs_csv(path)


def test_a_runs_row_longer_than_its_header_is_refused(tmp_path):
    # csv.DictReader files the cells past the header under the key None
    path = tmp_path / "runs.csv"
    path.write_text("problem_id,solver_id,repeat,seed,tau,N_p,status\nP,arc,0,0,0.01,inf,MaxIter,extra\n")
    with pytest.raises(InvalidInputError, match="runs.csv:2: more cells than the header has columns$"):
        read_runs_csv(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("P,arc,0,0,0.01,0.5,GradientTolReached", r"runs.csv:3: run \('P', 'arc', 0\) has seed 0 and status "
                                                  r"'GradientTolReached' here, seed 0 and status 'MaxIter' on its "
                                                  r"first row$"),
        ("P,arc,0,7,0.00001,inf,MaxIter", r"runs.csv:3: run \('P', 'arc', 0\) has seed 7 and status 'MaxIter' "
                                          r"here, seed 0 "),
        ("P,arc,0,0,0.01,inf,MaxIter", r"runs.csv:3: run \('P', 'arc', 0\) has a second row at tau 0.01$"),
    ],
    ids=["status-differs", "seed-differs", "tau-twice"],
)
def test_runs_rows_that_disagree_are_refused(tmp_path, row, message):
    path = tmp_path / "runs.csv"
    path.write_text(f"problem_id,solver_id,repeat,seed,tau,N_p,status\nP,arc,0,0,0.01,inf,MaxIter\n{row}\n")
    with pytest.raises(InvalidInputError, match=message):
        read_runs_csv(path)
    # the same rows under another repeat are two runs
    path.write_text(path.read_text().replace("P,arc,0,", "P,arc,1,", 1))
    assert len(read_runs_csv(path)) == 2


def test_grid_writes_traces(tmp_path):
    problems = ["QUADRANK:d=6:rank=6"]
    configs = [SolverConfig(mode="arc", epsilon=1e-7)]
    run_grid(problems, configs, repeats=1, seed_base=0, taus=(1e-2,), out_dir=str(tmp_path))
    assert (tmp_path / "trace_QUADRANK_d6_rank6_arc_rep0.csv").exists()


def test_grid_refuses_configs_that_share_a_solver_id(tmp_path):
    configs = [SolverConfig(mode="rarc-d", sigma0=1.0), SolverConfig(mode="rarc-d", sigma0=3.0)]
    with pytest.raises(InvalidInputError, match="'rarc-d-l02'.*would merge"):
        run_grid(["QUADRANK:d=6"], configs, repeats=1, seed_base=0, out_dir=str(tmp_path))
    assert not list(tmp_path.iterdir())  # refused before any run


@pytest.mark.parametrize("tau", [0.0, 1.0, math.nan])
def test_grid_refuses_a_tau_outside_the_unit_interval(tau):
    configs = [SolverConfig(mode="arc")]
    with pytest.raises(InvalidInputError, match="tau"):
        run_grid(["QUADRANK:d=6"], configs, repeats=1, seed_base=0, taus=(1e-2, tau))


def test_grid_refuses_a_repeated_tau(tmp_path):
    # each run keeps one budget per tau, so a repeat would halve the runs.csv rows the taus imply
    configs = [SolverConfig(mode="arc")]
    with pytest.raises(InvalidInputError, match="repeated tau"):
        run_grid(["QUADRANK:d=6"], configs, repeats=1, seed_base=0, taus=(0.01, 0.01), out_dir=str(tmp_path))
    assert not list(tmp_path.iterdir())  # refused before any run


def test_grid_refuses_no_tau(tmp_path):
    # a run with no tau has no budget, so the runs CSV would hold no row for it
    configs = [SolverConfig(mode="arc")]
    with pytest.raises(InvalidInputError, match=r"need one or more taus, each in \(0,1\), got \[\]"):
        run_grid(["QUADRANK:d=6"], configs, repeats=1, seed_base=0, taus=(), out_dir=str(tmp_path))
    assert not list(tmp_path.iterdir())  # refused before any run


def test_lifted_selector_gets_instance_seeds_in_either_case():
    configs = [SolverConfig(mode="arc", epsilon=1e-6)]
    runs = run_grid(["L-ARWHEAD:N=10:d=40"], configs, repeats=2, seed_base=0, taus=(1e-2,))
    assert [r.problem_id for r in runs] == [f"L-ARWHEAD:N=10:d=40:seed={s}" for s in (0, 1)]
