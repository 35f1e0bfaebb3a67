import math

import numpy as np
import pytest

from rsarc import (
    InvalidInputError,
    InvalidProblemError,
    SolverConfig,
    builtin_problem,
    data_profile,
    read_runs_csv,
    run,
    run_grid,
    solved_budget,
    write_runs_csv,
)
from rsarc.bench import METRIC_REL_HESSIANS, METRIC_RUNTIME, BenchmarkRun
from rsarc.solver import IterationTrace


def make_trace(fs, l=1, d=1):
    rows = []
    cum = 0.0
    for k, f in enumerate(fs):
        cum += (l / d) ** 2
        rows.append(
            IterationTrace(
                k=k, f=f, grad_norm=1.0, l_k=l, r_hat_k=1, big_r_hat_k=1,
                sigma_k=1.0, rho_k=1.0, success=True, step_norm=1.0, inner_iterations=1,
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


def test_grid_records_failures_without_aborting():
    # ENGVAL1 at this size has no catalogued optimum, so scoring fails per-run
    problems = ["ENGVAL1:N=7", "QUADRANK:d=6:rank=6"]
    configs = [SolverConfig(mode="arc", epsilon=1e-7)]
    runs = run_grid(problems, configs, repeats=1, seed_base=0, taus=(1e-2,))
    by_problem = {r.problem_id: r for r in runs}
    bad = by_problem["ENGVAL1:N=7"]
    assert bad.n_p[1e-2] == math.inf
    assert bad.status.startswith("Error")
    assert math.isfinite(by_problem["QUADRANK:d=6:rank=6"].n_p[1e-2])


def test_grid_worker_pool_matches_serial():
    problems = ["QUADRANK:d=8:rank=8", "l-QUADRANK:N=6:d=20"]
    configs = [SolverConfig(mode="rarc-d", l0=2, epsilon=1e-7)]
    serial = run_grid(problems, configs, repeats=2, seed_base=1, taus=(1e-2,))
    pooled = run_grid(problems, configs, repeats=2, seed_base=1, taus=(1e-2,), workers=2)
    assert [r.n_p for r in serial] == [r.n_p for r in pooled]


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


def test_grid_writes_traces(tmp_path):
    problems = ["QUADRANK:d=6:rank=6"]
    configs = [SolverConfig(mode="arc", epsilon=1e-7)]
    runs = run_grid(problems, configs, repeats=1, seed_base=0, taus=(1e-2,),
                    out_dir=str(tmp_path))
    assert runs[0].trace_path is not None
    assert (tmp_path / runs[0].trace_path.split("/")[-1]).exists()
