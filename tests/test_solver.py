import dataclasses
import json
import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from rsarc import (
    ConfigError,
    InnerSolverError,
    InvalidDimensionError,
    InvalidInputError,
    InvalidProblemError,
    SolverConfig,
    augment,
    builtin_problem,
    decrease_ratio,
    get_problem,
    quadrank_minimizer,
    run,
    trace_from_csv,
    trace_to_csv,
    update_sketch_size,
)
from rsarc import _lapack
from rsarc import solver as solver_mod
from rsarc.solver import (
    STATUS_DECREASE_UNRESOLVED,
    STATUS_GRADIENT_TOL,
    STATUS_INNER_FAILURE,
    STATUS_MAX_ITER,
    STATUS_NON_FINITE,
    TRACE_COLUMNS,
    summary_dict,
)
from helpers import wrap_products


def test_update_sketch_size_rule():
    assert update_sketch_size(2, 2, 0, 1, 1000) == 3
    assert update_sketch_size(5, 3, 3, 1, 1000) == 5
    assert update_sketch_size(2, 2, 1, 3, 1000) == 7
    assert update_sketch_size(2, 400, 0, 3, 100) == 100  # capped at d
    assert update_sketch_size(9, 4, 3, 1, 1000) == 9  # never shrinks


def test_decrease_ratio():
    assert decrease_ratio(10.0, 9.0, 1.0, 1e-16) == 1.0
    assert decrease_ratio(10.0, 10.5, 1.0, 1e-16) == -0.5
    assert math.isnan(decrease_ratio(10.0, 9.0, 1e-20, 1e-16 * 11.0))


def test_immediate_convergence():
    p = builtin_problem("QUADRANK", 6)
    eps = 2 * np.linalg.norm(p.gradient(p.x0))
    res = run(p, SolverConfig(mode="arc", epsilon=eps))
    assert res.status == STATUS_GRADIENT_TOL
    assert len(res.trace) == 0
    assert np.array_equal(res.x_final, p.x0)


def test_arc_quadratic_reaches_closed_form_optimum():
    p = builtin_problem("QUADRANK", 10)
    res = run(p, SolverConfig(mode="arc", epsilon=1e-8))
    assert res.status == STATUS_GRADIENT_TOL
    assert abs(res.f_final - p.f_star) <= 1e-10
    assert np.linalg.norm(res.x_final - quadrank_minimizer(10, 10)) <= 1e-6


def test_arc_is_seed_independent():
    p = builtin_problem("ENGVAL1", 12)
    res_a = run(p, SolverConfig(mode="arc", epsilon=1e-6, seed=1))
    res_b = run(p, SolverConfig(mode="arc", epsilon=1e-6, seed=999))
    assert [t.f for t in res_a.trace] == [t.f for t in res_b.trace]
    assert np.array_equal(res_a.x_final, res_b.x_final)


def test_trace_invariants():
    p = augment(builtin_problem("QUADRANK", 8), 40, seed=2)
    cfg = SolverConfig(mode="rarc-d", l0=2, growth_c=1, epsilon=1e-7, seed=3)
    res = run(p, cfg)
    assert res.status == STATUS_GRADIENT_TOL
    tr = res.trace
    d = p.dim
    prev_f = None
    for i, t in enumerate(tr):
        assert t.r_hat_k <= t.l_k
        assert t.R_hat_k <= p.known_rank
        assert t.sigma_k >= solver_mod._SIGMA_MIN
        if i > 0:
            assert t.l_k >= tr[i - 1].l_k  # never shrinks
            assert t.R_hat_k >= tr[i - 1].R_hat_k
            expected = tr[i - 1].cum_rel_hessians + (t.l_k / d) ** 2
            assert t.cum_rel_hessians == pytest.approx(expected, rel=1e-15)
            assert t.wall_time_s >= tr[i - 1].wall_time_s
        else:
            assert t.cum_rel_hessians == pytest.approx((t.l_k / d) ** 2, rel=1e-15)
        assert t.l_k <= max(cfg.growth_c * p.known_rank + 1, cfg.l0)
        if t.success:
            if prev_f is not None:
                assert t.f <= prev_f
            prev_f = t.f
    # monotone descent across successful iterations
    succ_f = [t.f for t in tr if t.success]
    assert all(b < a for a, b in zip(succ_f, succ_f[1:]))


def test_sigma_growth_geometric_on_failures():
    p = builtin_problem("COSINE", 20)
    res = run(p, SolverConfig(mode="rarc-d", l0=2, epsilon=1e-6, max_iter=300, seed=11))
    tr = res.trace
    saw_failure_pair = 0
    for a, b in zip(tr, tr[1:]):
        if not a.success:
            assert b.sigma_k == pytest.approx(a.sigma_k * 2.0, rel=1e-15)
            saw_failure_pair += 1
        else:
            assert b.sigma_k == pytest.approx(max(a.sigma_k * 0.5, 1e-16), rel=1e-15)
    assert saw_failure_pair > 0  # the run must actually exercise failures


def test_a_step_is_accepted_exactly_when_rho_reaches_theta():
    p = builtin_problem("COSINE", 20)
    res = run(p, SolverConfig(mode="rarc-d", l0=2, epsilon=1e-6, max_iter=300, seed=11))
    assert all(row.success == (row.rho_k >= 0.01) for row in res.trace)  # NaN rho rejects
    # rows on both sides of theta, close to it, pin its value
    assert any(0.005 < row.rho_k < 0.01 for row in res.trace)
    assert any(0.01 <= row.rho_k < 0.015 for row in res.trace)


def test_rho_nan_on_guarded_denominator():
    # at a near-stationary point with sigma huge the predicted decrease can
    # fall below the guard; the iteration must be recorded unsuccessful
    p = builtin_problem("QUADRANK", 5)
    x_star = quadrank_minimizer(5, 5)
    p_shifted = builtin_problem("QUADRANK", 5)
    p_shifted.x0 = x_star + 1e-12
    res = run(p_shifted, SolverConfig(mode="arc", epsilon=1e-16, max_iter=5, sigma0=1e12))
    assert any(math.isnan(t.rho_k) and not t.success for t in res.trace) or res.status == STATUS_GRADIENT_TOL


def test_rarc_d_grows_sketch_to_rank_bound():
    ok = 0
    for seed in range(10):
        p = augment(builtin_problem("QUADRANK", 10), 200, seed=100 + seed)
        cfg = SolverConfig(mode="rarc-d", l0=2, growth_c=1, epsilon=1e-5, seed=seed)
        res = run(p, cfg)
        ls = [t.l_k for t in res.trace]
        assert max(ls) <= 11  # C*r + 1 with r = 10
        if res.status == STATUS_GRADIENT_TOL and 3 <= ls[-1] <= 11:
            ok += 1
    assert ok >= 9


def test_rank_growth_until_rank_reached():
    # whenever l_k < r + 1 the sketched Hessian of a rank-10 quadratic is
    # full rank, so the running max keeps growing
    for seed in range(50):
        p = builtin_problem("QUADRANK", 30, rank=10)
        cfg = SolverConfig(mode="rarc-d", l0=2, growth_c=1, epsilon=1e-8, seed=seed)
        res = run(p, cfg)
        for t in res.trace:
            if t.l_k < 11:
                assert t.r_hat_k == min(t.l_k, 10)


def test_adaptive_run_on_augmented_arwhead():
    # sketch size stays within C*r + 1 = 101 on a rank-100 problem and the
    # final value lands well below the solve threshold
    p = get_problem("l-ARWHEAD:d=1000:seed=1")
    cfg = SolverConfig(mode="rarc-d", l0=2, growth_c=1, epsilon=1e-5, seed=0)
    res = run(p, cfg)
    assert res.status == STATUS_GRADIENT_TOL
    assert res.f_final <= 1e-5 * 297.0
    assert max(t.l_k for t in res.trace) <= 101


def test_redraw_policies_both_run():
    p = augment(builtin_problem("QUADRANK", 5), 25, seed=1)
    for policy in ("on-success", "every-iteration"):
        cfg = SolverConfig(mode="rarc", l0=6, epsilon=1e-6, seed=7, redraw_policy=policy)
        res = run(p, cfg)
        assert res.status == STATUS_GRADIENT_TOL


def test_inner_failure_after_repeated_singular_grams(monkeypatch):
    zero = solver_mod.sk.SketchMatrix(np.zeros((2, 6)), "scaled_gaussian")
    monkeypatch.setattr(solver_mod.sk, "draw", lambda *a, **k: zero)
    p = builtin_problem("QUADRANK", 6)
    res = run(p, SolverConfig(mode="rarc", l0=2, epsilon=1e-8, seed=0))
    assert res.status == STATUS_INNER_FAILURE


def test_gram_redraws_are_traced_and_summed(monkeypatch):
    zero = solver_mod.sk.SketchMatrix(np.zeros((2, 6)), "scaled_gaussian")
    draw = solver_mod.sk.draw
    draws = []

    def two_singular_draws_first(*args, **kwargs):
        draws.append(args)
        return zero if len(draws) <= 2 else draw(*args, **kwargs)

    monkeypatch.setattr(solver_mod.sk, "draw", two_singular_draws_first)
    p = builtin_problem("QUADRANK", 6)
    cfg = SolverConfig(mode="rarc", l0=2, epsilon=1e-8, seed=0)
    res = run(p, cfg)
    assert len(res.trace) > 1
    assert [row.gram_redraws for row in res.trace[:2]] == [2, 0]
    assert summary_dict(p, cfg, res)["gram_redraws"] == 2


def test_max_iter_status():
    p = builtin_problem("ROSENCHAIN", 10)
    res = run(p, SolverConfig(mode="arc", epsilon=1e-12, max_iter=3))
    assert res.status == STATUS_MAX_ITER
    assert len(res.trace) == 3


def test_l0_larger_than_dimension_rejected():
    p = builtin_problem("QUADRANK", 4)
    with pytest.raises(InvalidDimensionError):
        run(p, SolverConfig(mode="rarc", l0=9))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sigma0": 0.0},
        {"sigma0": 1e-20},
        {"sigma0": -1.0},
        {"epsilon": 0.0},
        {"epsilon": -1e-5},
        {"l0": 0},
        {"l0": -1},
        {"growth_c": 0},
        {"growth_c": -1},
        {"redraw_policy": "sometimes"},
        {"mode": "bogus"},
        {"max_iter": -1},
        {"sigma0": math.nan},
        {"sigma0": math.inf},
        {"sigma0": -math.inf},
        {"epsilon": math.inf},
        {"epsilon": math.nan},
        {"epsilon": -math.inf},
        {"mode": "ARC"},
        {"redraw_policy": ""},
        {"seed": -1},
        {"sigma0": 9.9e-17},
        {"l0": 2.5},
        {"max_iter": 10.5},
        {"growth_c": 1.5},
        {"seed": 1.5},
        {"sigma0": "1"},
        {"l0": 2.0},
        {"max_iter": True},
        {"epsilon": False},
        {"mode": 1},
        {"redraw_policy": None},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        SolverConfig(**kwargs).validate()


def test_solver_id_names_the_settings_that_change_the_run():
    assert SolverConfig(mode="arc", growth_c=2, redraw_policy="every-iteration").solver_id() == "arc"
    assert SolverConfig(mode="rarc", l0=7, growth_c=2).solver_id() == "rarc-l7"  # fixed l
    assert SolverConfig(mode="rarc-d").solver_id() == "rarc-d-l02"
    assert SolverConfig(mode="rarc-d", growth_c=2).solver_id() == "rarc-d-l02-C2"
    every = SolverConfig(mode="rarc-d", l0=3, growth_c=2, redraw_policy="every-iteration")
    assert every.solver_id() == "rarc-d-l03-C2-every-iteration"
    fixed = SolverConfig(mode="rarc", l0=7, redraw_policy="every-iteration")
    assert fixed.solver_id() == "rarc-l7-every-iteration"


def test_validate_accepts_each_minimum():
    SolverConfig(sigma0=1e-16, epsilon=math.ulp(0.0), max_iter=0, l0=1, growth_c=1, seed=0).validate()
    SolverConfig(sigma0=1, epsilon=1).validate()  # an int is a valid float setting


def test_trace_csv_header(tmp_path):
    path = tmp_path / "trace.csv"
    trace_to_csv([], path)
    assert path.read_text() == (
        "k,f,grad_norm,l_k,r_hat_k,R_hat_k,sigma_k,rho_k,predicted_decrease,success,step_norm,"
        "inner_iterations,mu,hard_case,gram_redraws,cum_rel_hessians,wall_time_s\n"
    )


def test_trace_csv_roundtrip(tmp_path):
    p = builtin_problem("QUADRANK", 6)
    res = run(p, SolverConfig(mode="arc", epsilon=1e-9))
    path = tmp_path / "trace.csv"
    trace_to_csv(res.trace, path)
    back = trace_from_csv(path)
    assert back == res.trace


def test_a_trace_of_numpy_scalar_values_reads_back(tmp_path):
    # on NumPy 2 repr(np.float64(0.0)) is 'np.float64(0.0)', which no float parse reads
    p = builtin_problem("QUADRANK", 6)
    p = dataclasses.replace(p, value=lambda x, value=p.value: np.float64(value(x)))
    res = run(p, SolverConfig(mode="arc", epsilon=1e-9))
    assert isinstance(res.trace[0].f, np.float64)
    path = tmp_path / "trace.csv"
    trace_to_csv(res.trace, path)
    assert "np." not in path.read_text()
    assert trace_from_csv(path) == res.trace


def test_a_malformed_trace_csv_names_the_file_line_and_column(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("k,f\n0,1.0\n")
    with pytest.raises(InvalidInputError, match=r"trace\.csv:1: not a trace CSV, missing column\(s\) \['grad_norm'"):
        trace_from_csv(path)
    res = run(builtin_problem("QUADRANK", 6), SolverConfig(mode="arc", epsilon=1e-9))
    trace_to_csv(res.trace, path)
    lines = path.read_text().splitlines()
    assert len(lines) >= 3
    for column, bad in (("mu", "abc"), ("success", "maybe"), ("k", "")):
        cells = lines[2].split(",")
        cells[TRACE_COLUMNS.index(column)] = bad
        path.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
        with pytest.raises(InvalidInputError, match=rf"trace\.csv:3: column {column}: cannot parse '{bad}'"):
            trace_from_csv(path)
    path.write_text("\n".join(lines[:2] + [lines[2].rsplit(",", 1)[0]]) + "\n")
    with pytest.raises(InvalidInputError, match=r"trace\.csv:3: column wall_time_s: no cell$"):
        trace_from_csv(path)
    path.write_text("\n".join(lines[:2] + [lines[2] + ",0.0"] + lines[3:]) + "\n")
    with pytest.raises(InvalidInputError, match=r"trace\.csv:3: more cells than the header has columns$"):
        trace_from_csv(path)


def test_summary_dict_contents():
    p = builtin_problem("QUADRANK", 6)
    cfg = SolverConfig(mode="arc", epsilon=1e-9)
    res = run(p, cfg)
    s = summary_dict(p, cfg, res)
    assert s["status"] == STATUS_GRADIENT_TOL
    assert s["solver_id"] == "arc"
    assert s["config"]["epsilon"] == 1e-9
    assert s["iterations"] == len(res.trace)


def test_summary_records_the_blas_thread_settings(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    p = builtin_problem("QUADRANK", 6)
    cfg = SolverConfig(mode="arc")
    threads = summary_dict(p, cfg, run(p, cfg))["threads"]
    assert threads["OPENBLAS_NUM_THREADS"] == "3" and threads["MKL_NUM_THREADS"] is None
    assert set(threads) == {
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "blas_threads", "cpu_count"
    }
    assert threads["cpu_count"] == os.cpu_count()
    # the live count, which an unset or stale OPENBLAS_NUM_THREADS does not tell
    assert threads["blas_threads"] == _lapack.blas_threads()


def _unresolved_decrease_run():
    # reaches f = 0 with ||g|| = 1.2e-8 > epsilon at k = 10; from then on
    # every predicted decrease is below the rho guard 1e-16 (1 + |f|)
    p = get_problem("l-ARWHEAD:N=10:d=40")
    cfg = SolverConfig(mode="rarc-d", seed=3, epsilon=1e-8)
    return p, cfg, run(p, cfg)


def test_unresolved_decrease_ends_the_run():
    _, _, res = _unresolved_decrease_run()
    assert res.status == STATUS_DECREASE_UNRESOLVED
    assert len(res.trace) <= 40  # was InnerFailure after 1,044 rows, sigma = 9e307
    stalled = res.trace[-solver_mod._MAX_UNRESOLVED_DECREASES:]
    for row in stalled:
        assert math.isnan(row.rho_k) and not row.success
        assert row.predicted_decrease <= 1e-16 * (1.0 + abs(row.f))
    assert max(row.sigma_k for row in res.trace) < 1e6


@pytest.mark.parametrize("bad", ["value", "gradient"])
def test_a_non_finite_summary_is_strict_json(bad):
    # a NonFiniteDerivative run ends at a NaN f or gradient; the summary writes null
    p = builtin_problem("QUADRANK", 6)
    p = dataclasses.replace(p, **{bad: lambda x: np.full(6, math.nan) if bad == "gradient" else math.nan})
    res = run(p, SolverConfig(mode="arc"))
    assert res.status == STATUS_NON_FINITE
    s = json.loads(json.dumps(summary_dict(p, SolverConfig(mode="arc"), res), allow_nan=False))
    assert (s["f_final"] is None, s["grad_norm_final"] is None) == (bad == "value", bad == "gradient")


def test_summary_counts_rejected_steps_and_the_sigma_range():
    p, cfg, res = _unresolved_decrease_run()
    s = json.loads(json.dumps(summary_dict(p, cfg, res)))
    rejected = [row for row in res.trace if not row.success]
    assert rejected
    assert s["status"] == STATUS_DECREASE_UNRESOLVED
    assert s["accepted_steps"] + s["rejected_steps"] == s["iterations"] == len(res.trace)
    assert s["rejected_steps"] == len(rejected)
    assert s["sigma_k_min"] == min(row.sigma_k for row in res.trace)
    assert s["sigma_k_max"] == max(row.sigma_k for row in res.trace)
    assert s["sigma_k_max"] > s["sigma_k_min"]


@pytest.mark.parametrize("mode", ["arc", "rarc", "rarc-d"])
def test_sketched_modes_never_form_the_dense_hessian(mode):
    def hessian(x):
        raise AssertionError("dense Hessian evaluated")

    # a lifted problem and built-ins, the rank-5 QUADRANK among them; COSINE
    # stalls on its unbounded sublevel sets, so it runs 20 iterations
    cases = [
        ("l-ARWHEAD:N=20:d=300:seed=2", 21, 2000, STATUS_GRADIENT_TOL),
        ("QUADRANK:N=30:rank=5", 6, 2000, STATUS_GRADIENT_TOL),
        ("NONDQUAR:N=20", 20, 2000, STATUS_GRADIENT_TOL),
        ("COSINE:N=20", 5, 20, STATUS_MAX_ITER),
    ]
    for selector, l0, max_iter, status in cases:
        p = dataclasses.replace(get_problem(selector), hessian=hessian)
        res = run(p, SolverConfig(mode=mode, l0=l0, max_iter=max_iter, epsilon=1e-5, seed=4))
        assert res.status == status, selector


def test_arc_uses_the_hessian_vector_products_of_a_lifted_problem():
    # ARWHEAD's gradient spans a 2-dimensional invariant subspace of its
    # Hessian, so each model makes one operator and applies it twice, to one
    # column each, and T_k has rank 2
    p, made = wrap_products(get_problem("l-ARWHEAD:N=20:d=60:seed=2"))
    res = run(p, SolverConfig(mode="arc", epsilon=1e-6))
    assert res.status == STATUS_GRADIENT_TOL
    fresh = len(res.trace) - len(_reused(res.trace))
    assert made == [[(60, 1)] * 2] * fresh
    assert [row.r_hat_k for row in res.trace] == [2] * len(res.trace)


def test_a_lifted_operator_makes_one_base_operator_per_model():
    # Q^T x and the base's coefficients at it are computed once per Lanczos
    # run, not once per product: each fresh model makes one base operator
    base, made = wrap_products(builtin_problem("ENGVAL1", 20))
    res = run(augment(base, 60, seed=2), SolverConfig(mode="arc", epsilon=1e-6))
    assert res.status == STATUS_GRADIENT_TOL
    fresh = len(res.trace) - len(_reused(res.trace))
    assert len(made) == fresh > 1
    assert all(len(shapes) > 2 and set(shapes) == {(20, 1)} for shapes in made)


def test_a_product_of_the_wrong_shape_is_a_typed_error():
    # an operator one row short is named with both shapes, not left to numpy
    p, _ = wrap_products(get_problem("l-ARWHEAD:N=10:d=40"), lambda m, h: h[:-1])
    with pytest.raises(InvalidDimensionError, match=r"\(39, 1\).*\(40, 1\)"):
        run(p, SolverConfig(mode="arc"))


def _first_nan(h):
    h[0, 0] = math.nan
    return h


def _nan_hessian(problem):
    # every form: arc applies hmul's operator, the sketched modes call
    # sketched_hessian, and a lifted problem's sketched_hessian its base's hessian
    def poisoned(form):
        return lambda *args: _first_nan(form(*args))

    problem, _ = wrap_products(problem, lambda m, h: _first_nan(h))
    return dataclasses.replace(
        problem,
        hessian=poisoned(problem.hessian),
        sketched_hessian=poisoned(problem.sketched_hessian),
    )


@pytest.mark.parametrize(
    "mode,make",
    [
        ("arc", lambda: _nan_hessian(builtin_problem("ARWHEAD", 10))),
        ("rarc-d", lambda: _nan_hessian(builtin_problem("ARWHEAD", 10))),
        ("rarc-d", lambda: augment(_nan_hessian(builtin_problem("ARWHEAD", 10)), 40, seed=1)),
    ],
)
def test_non_finite_hessian_ends_with_typed_status(mode, make):
    res = run(make(), SolverConfig(mode=mode, seed=0))
    assert res.status == STATUS_NON_FINITE
    assert res.trace == []


def test_a_nan_in_the_triangle_the_model_does_not_read_ends_with_typed_status():
    # arc reads H v through v.(H v) and the coordinates of H v that v weights;
    # QUADRANK's gradient at x0 = 0 vanishes off the rank support, so a NaN in
    # the last entry of H v is weighted by zero, and 0 * NaN is still NaN
    p = builtin_problem("QUADRANK", 10, rank=5)

    def last_nan(m, h):
        h[-1] = math.nan
        return h

    assert p.gradient(p.x0)[-1] == 0.0
    res = run(wrap_products(p, last_nan)[0], SolverConfig(mode="arc"))
    assert res.status == STATUS_NON_FINITE
    assert res.trace == []


@pytest.mark.parametrize("d", [40, 200])  # a sketched model by eigh, and by the factored reduction
def test_a_finite_hessian_whose_squares_overflow_is_finite(d):
    # diag(1..d) scaled by 1e160: ||H||_F^2 overflows, no entry of H does;
    # each step is too short to decrease f, so the run reaches max_iter.  arc
    # decomposes T_k by dstedc at any d; rarc at l0 = d builds a model of order d
    p = get_problem(f"QUADRANK:N={d}:rank={d}")
    arc = run(wrap_products(p, lambda m, h: 1e160 * h)[0], SolverConfig(mode="arc", max_iter=2))
    scaled = dataclasses.replace(p, sketched_hessian=lambda x, s: 1e160 * p.sketched_hessian(x, s))
    sketched = run(scaled, SolverConfig(mode="rarc", l0=d, max_iter=2))
    for res in (arc, sketched):
        assert res.status == STATUS_MAX_ITER and len(res.trace) == 2


def test_a_step_whose_cube_overflows_is_an_inner_failure():
    # H v scaled by -1e145 gives arc eigenvalues near -1e147, so the step norm
    # is about 1e147 and its cube overflows: arc ends InnerFailure; rarc-d
    # reads sketched_hessian, which the scaling leaves alone; no
    # OverflowError or RuntimeWarning escapes
    p = get_problem("l-ARWHEAD:N=10:d=40")
    scaled, _ = wrap_products(p, lambda m, h: -1e145 * h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        arc = run(scaled, SolverConfig(mode="arc", max_iter=2))
        sketched = run(scaled, SolverConfig(mode="rarc-d", max_iter=2))
    assert arc.status == STATUS_INNER_FAILURE and arc.trace == []
    assert sketched.status == STATUS_MAX_ITER and len(sketched.trace) == 2


@pytest.mark.parametrize("mode", ["arc", "rarc-d"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_gradient_ends_with_typed_status(bad, mode):
    p = builtin_problem("QUADRANK", 6)
    p = dataclasses.replace(p, gradient=lambda x: np.full(6, bad))
    res = run(p, SolverConfig(mode=mode))
    assert res.status == STATUS_NON_FINITE
    assert res.trace == []


@pytest.mark.parametrize("mode", ["arc", "rarc-d"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_initial_value_ends_at_once(bad, mode):
    p = builtin_problem("QUADRANK", 6)
    p = dataclasses.replace(p, value=lambda x: bad)
    res = run(p, SolverConfig(mode=mode))
    assert res.status == STATUS_NON_FINITE
    assert res.trace == []


def test_understated_known_rank_is_rejected():
    p = dataclasses.replace(builtin_problem("QUADRANK", 10), known_rank=2)
    with pytest.raises(InvalidProblemError, match="known_rank=2"):
        run(p, SolverConfig(mode="rarc-d", l0=2, growth_c=1, epsilon=1e-8, seed=0))


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_arc_makes_one_eigendecomposition_per_iteration(monkeypatch):
    # with an identity Gram the observed rank comes from the model's spectrum,
    # that of T_k, which dstedc decomposes as the tridiagonal it is: no dense
    # T_k goes to eigh unless LAPACK is missing
    p = get_problem("l-ARWHEAD:N=10:d=40")
    eigh = _counting(monkeypatch, np.linalg, "eigh")
    eigvalsh = _counting(monkeypatch, np.linalg, "eigvalsh")
    dstedc = _counting(monkeypatch, solver_mod.sp._lapack, "tridiagonal_eigh")
    res = run(p, SolverConfig(mode="arc", epsilon=1e-8))
    assert res.status == STATUS_GRADIENT_TOL and len(res.trace) > 3
    assert (len(eigh) + len(dstedc), len(eigvalsh)) == (len(res.trace), 0)
    assert eigh == [] or not _lapack.available()


@pytest.mark.skipif(not solver_mod.sp._lapack.available(), reason="numpy's OpenBLAS exports no LAPACK")
def test_without_lapack_arc_falls_back_to_eigh(monkeypatch):
    # arc decomposes T_k by dstedc when numpy's OpenBLAS exports LAPACK, and
    # the dense T_k by np.linalg.eigh otherwise; on this rank-150 problem
    # Lanczos runs k = 156 steps from every x, past _FACTORED_MIN
    p = get_problem("l-ENGVAL1:N=150:d=300")
    cfg = SolverConfig(mode="arc")
    eigh = _counting(monkeypatch, np.linalg, "eigh")
    factored = run(p, cfg)
    assert eigh == []
    monkeypatch.setattr(solver_mod.sp._lapack, "available", lambda: False)
    fallback = run(p, cfg)
    assert len(eigh) == len(fallback.trace) - len(_reused(fallback.trace)) > 0
    assert (fallback.status, len(fallback.trace)) == (factored.status, len(factored.trace))
    assert [row.r_hat_k for row in fallback.trace] == [row.r_hat_k for row in factored.trace]


def _reused(trace):
    """Rows whose iteration reuses the last one's model: it was rejected and l stayed."""
    return [b.k for a, b in zip(trace, trace[1:]) if not a.success and a.l_k == b.l_k]


def test_rarc_d_makes_one_eigendecomposition_per_iteration(monkeypatch):
    # the rank comes from the whitened spectrum of the model, which is
    # congruent to S H S^T: no second decomposition of S H S^T
    p = get_problem("l-COSINE:N=10:d=40")
    eigh = _counting(monkeypatch, np.linalg, "eigh")
    eigvalsh = _counting(monkeypatch, np.linalg, "eigvalsh")
    ranked = _counting(monkeypatch, solver_mod.sk, "numerical_rank")
    built = _counting(monkeypatch, solver_mod.sp, "build_model")
    res = run(p, SolverConfig(mode="rarc-d", epsilon=1e-6, seed=0, max_iter=60))
    fresh = len(res.trace) - len(_reused(res.trace))
    grown = [b.k for a, b in zip(res.trace, res.trace[1:]) if not a.success and a.l_k != b.l_k]
    assert _reused(res.trace) and grown  # a grown l after a rejection is decomposed afresh
    assert (len(eigh), len(built)) == (fresh, fresh)
    assert (len(eigvalsh), len(ranked)) == (0, 0)


def test_rarc_d_takes_each_gradient_into_the_eigenbasis_once(monkeypatch):
    # V^T g depends on the model alone, so a model reused with a new sigma
    # solves from the coordinates build_model computed
    p = get_problem("l-COSINE:N=10:d=40")
    projected = _counting(monkeypatch, solver_mod.sp, "_to_eigenbasis")
    res = run(p, SolverConfig(mode="rarc-d", epsilon=1e-6, seed=0, max_iter=60))
    fresh = len(res.trace) - len(_reused(res.trace))
    assert _reused(res.trace) and len(projected) == fresh


def _iteration_calls(monkeypatch, problem):
    """A copy of ``problem`` whose value and Hessians, and the draws and
    eigendecompositions, log into the returned list.  Every iteration ends in
    one trial value, so the log splits at "value" into iterations (see
    _segments); a run of Lanczos products logs one "hmul", and eigh and
    dstedc (arc's T_k) each log "eigh"."""
    log = []

    def logged(name, fn):
        def call(*args, **kwargs):
            log.append(name)
            return fn(*args, **kwargs)

        return call

    def product(m, h):
        if log[-1:] != ["hmul"]:
            log.append("hmul")
        return h

    monkeypatch.setattr(np.linalg, "eigh", logged("eigh", np.linalg.eigh))
    dstedc = solver_mod.sp._lapack.tridiagonal_eigh
    monkeypatch.setattr(solver_mod.sp._lapack, "tridiagonal_eigh", logged("eigh", dstedc))
    monkeypatch.setattr(solver_mod.sk, "draw", logged("draw", solver_mod.sk.draw))
    problem, _ = wrap_products(problem, product)
    problem = dataclasses.replace(
        problem,
        value=logged("value", problem.value),
        hessian=logged("hessian", problem.hessian),
        sketched_hessian=logged("sketched_hessian", problem.sketched_hessian),
    )
    return problem, log


def _segments(log):
    segments = [[]]
    for name in log:
        if name == "value":
            segments.append([])
        else:
            segments[-1].append(name)
    return segments[1:-1]  # iteration k's calls up to its trial value, k = 0, 1, ...


@pytest.mark.parametrize(
    "selector, cfg, fresh_calls",
    [
        ("l-COSINE:N=10:d=40", SolverConfig(mode="rarc-d", seed=0, max_iter=60), ["draw", "sketched_hessian", "eigh"]),
        ("l-ROSENCHAIN:N=10:d=40", SolverConfig(mode="arc", epsilon=1e-6), ["hmul", "eigh"]),
    ],
)
def test_a_rejected_step_is_solved_again_from_the_same_spectrum(monkeypatch, selector, cfg, fresh_calls):
    p, log = _iteration_calls(monkeypatch, get_problem(selector))
    res = run(p, cfg)
    reused = set(_reused(res.trace))
    assert len(reused) >= 10
    segments = _segments(log)
    assert len(segments) == len(res.trace)
    for row, calls in zip(res.trace, segments):
        assert calls == ([] if row.k in reused else fresh_calls), row.k


@pytest.mark.parametrize(
    "mode, rows, rejected, draws, builds",
    [("rarc-d", 16, 5, 16, 16), ("arc", 80, 30, 0, 51)],
)
def test_every_iteration_redraws_leave_only_arc_a_model_to_reuse(
    monkeypatch, mode, rows, rejected, draws, builds
):
    # a sketched mode draws, projects and decomposes on every row; the
    # identity sketch is never redrawn, so arc reuses its model after a
    # rejected step under either policy
    p, log = _iteration_calls(monkeypatch, get_problem("l-COSINE:N=10:d=40"))
    cfg = SolverConfig(mode=mode, l0=3, seed=0, max_iter=80, redraw_policy="every-iteration")
    res = run(p, cfg)
    assert (len(res.trace), sum(not row.success for row in res.trace)) == (rows, rejected)
    assert (log.count("draw"), log.count("eigh")) == (draws, builds)
    reused = set(_reused(res.trace)) if mode == "arc" else set()
    fresh_calls = ["hmul", "eigh"] if mode == "arc" else ["draw", "sketched_hessian", "eigh"]
    for row, calls in zip(res.trace, _segments(log)):
        assert calls == ([] if row.k in reused else fresh_calls), row.k


def test_a_failed_reuse_redraws_the_sketch(monkeypatch):
    # a built-in, whose S H S^T comes from its own sketched_hessian: a reused
    # model whose solve fails is dropped, and the redraw projects the Hessian at x_k
    p = builtin_problem("COSINE", 20)
    cfg = SolverConfig(mode="rarc-d", seed=0, max_iter=20)
    solve = solver_mod.sp.solve
    solved, failed = [], []

    def fail_first_reuse(model, sigma):
        # a reused model is the one the last solve was given
        if solved and model is solved[-1] and not failed:
            failed.append(True)
            raise InnerSolverError("refused")
        solved.append(model)
        return solve(model, sigma)

    monkeypatch.setattr(solver_mod.sp, "solve", fail_first_reuse)
    res = run(p, cfg)
    assert failed and len(res.trace) == cfg.max_iter
    redrawn = [row.k for row in res.trace if row.gram_redraws]
    assert len(redrawn) == 1 and res.trace[redrawn[0] - 1].success is False


def _recorded_draws(monkeypatch):
    """Wrap sk.draw; each call records, right after the draw, whether its row
    stream's worker exists (it drew ahead), the BLAS thread count and the
    number of live Python threads."""
    draws = []
    draw = solver_mod.sk.draw

    def recorded(distribution, l, d, seed):
        s = draw(distribution, l, d, seed)
        draws.append((seed._worker is not None, _lapack.blas_threads(), threading.active_count()))
        return s

    monkeypatch.setattr(solver_mod.sk, "draw", recorded)
    return draws


@pytest.mark.parametrize(
    "check",
    [
        lambda mp: test_every_iteration_redraws_leave_only_arc_a_model_to_reuse(mp, "rarc-d", 16, 5, 16, 16),
        test_gram_redraws_are_traced_and_summed,
        test_a_failed_reuse_redraws_the_sketch,
    ],
    ids=["every-iteration-redraws", "gram-redraws", "failed-reuse"],
)
def test_draw_counts_hold_when_every_sketch_is_drawn_ahead(monkeypatch, blas_threads_at_least_two, check):
    monkeypatch.setattr(solver_mod.sk, "_DRAW_AHEAD_MIN", 1)
    draws = _recorded_draws(monkeypatch)
    check(monkeypatch)
    assert draws and all(streamed for streamed, _, _ in draws)


@pytest.mark.parametrize("selector", ["l-COSINE:N=10:d=40", "l-POWER:N=8:d=30"])
def test_drawn_ahead_sketches_give_the_inline_iterates(monkeypatch, blas_threads_at_least_two, selector):
    # at these sizes OpenBLAS runs one thread either way, so the bits must agree
    p = get_problem(selector)
    cfg = SolverConfig(mode="rarc-d", growth_c=2, seed=3, max_iter=60)
    inline = run(p, cfg)
    monkeypatch.setattr(solver_mod.sk, "_DRAW_AHEAD_MIN", 1)
    ahead = run(p, cfg)
    untimed = [dataclasses.replace(row, wall_time_s=0.0) for row in inline.trace]
    assert untimed == [dataclasses.replace(row, wall_time_s=0.0) for row in ahead.trace]
    assert np.array_equal(inline.x_final, ahead.x_final)


@pytest.mark.parametrize("raises", [False, True])
def test_a_drawn_ahead_run_restores_the_blas_threads_and_ends_its_worker(
    monkeypatch, blas_threads_at_least_two, raises
):
    # l0 * d = 17 * 2000 entries is above the gate from the first sketch on;
    # known_rank=2 makes rarc-d raise in the loop, once its worker is drawing
    n, live = blas_threads_at_least_two, threading.active_count()
    p = builtin_problem("QUADRANK", 2000)
    assert 17 * p.dim >= solver_mod.sk._DRAW_AHEAD_MIN
    draws = _recorded_draws(monkeypatch)
    if raises:
        with pytest.raises(InvalidProblemError):
            run(dataclasses.replace(p, known_rank=2), SolverConfig(mode="rarc-d", l0=17, seed=0))
    else:
        res = run(p, SolverConfig(mode="rarc", l0=17, seed=0, max_iter=5))
        assert res.status == STATUS_MAX_ITER and len(res.trace) == 5
    assert draws and all(streamed and threads == n - 1 for streamed, threads, _ in draws)
    assert (_lapack.blas_threads(), threading.active_count()) == (n, live)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux's per-thread listing")
def test_one_blas_thread_ends_the_idle_helpers_until_the_count_is_raised(blas_threads_at_least_two):
    # idle helpers busy-wait on the core the draw-ahead worker needs
    n = blas_threads_at_least_two
    a = np.random.default_rng(0).standard_normal((300, 300))
    product = a @ a  # wakes the helpers
    tasks = len(os.listdir("/proc/self/task"))
    _lapack.set_blas_threads(1)
    assert len(os.listdir("/proc/self/task")) < tasks
    assert np.array_equal(a @ a, a @ a)
    _lapack.set_blas_threads(n)
    assert _lapack.blas_threads() == n and np.array_equal(a @ a, product)
    assert len(os.listdir("/proc/self/task")) == tasks


def test_one_blas_thread_starts_no_worker(monkeypatch):
    monkeypatch.setattr(solver_mod._lapack, "blas_threads", lambda: 1)
    monkeypatch.setattr(solver_mod.sk, "_DRAW_AHEAD_MIN", 1)
    live = threading.active_count()
    draws = _recorded_draws(monkeypatch)
    res = run(get_problem("l-COSINE:N=10:d=40"), SolverConfig(mode="rarc-d", seed=0, max_iter=20))
    assert draws and len(res.trace) == 20
    assert all(not streamed and count == live for streamed, _, count in draws)


def test_reusing_the_spectrum_changes_no_iterate(monkeypatch):
    # a model reused with a new sigma matches one that is built and
    # decomposed again, from the f0, g and H of the last model built
    p = get_problem("l-COSINE:N=10:d=40")
    cfg = SolverConfig(mode="rarc-d", seed=0, max_iter=60)
    reused = run(p, cfg)
    rebuilt = []
    build, solve = solver_mod.sp.build_model, solver_mod.sp.solve
    last = {}  # the data of the last model built, and whether it was solved

    def recorded(f0, g_hat, h_hat):
        last.update(data=(f0, g_hat.copy(), h_hat.copy()), solved=False)
        return build(f0, g_hat, h_hat)

    def rebuild_a_reused_model(model, sigma):
        if last["solved"]:
            rebuilt.append(sigma)
            f0, g_hat, h_hat = last["data"]
            model = build(f0, g_hat.copy(), h_hat.copy())
        last["solved"] = True
        return solve(model, sigma)

    monkeypatch.setattr(solver_mod.sp, "build_model", recorded)
    monkeypatch.setattr(solver_mod.sp, "solve", rebuild_a_reused_model)
    again = run(p, cfg)
    assert _reused(reused.trace) and len(rebuilt) == len(_reused(reused.trace))
    untimed = [dataclasses.replace(row, wall_time_s=0.0) for row in reused.trace]
    assert untimed == [dataclasses.replace(row, wall_time_s=0.0) for row in again.trace]
    assert np.array_equal(reused.x_final, again.x_final)


def test_arc_draws_and_projects_no_sketch(monkeypatch):
    # the identity sketch is no matrix: g and H enter the model as they are
    def refuse(*args, **kwargs):
        raise AssertionError("sketch layer called")

    for name in ("draw", "sketch_gradient", "sketch_hessian"):
        monkeypatch.setattr(solver_mod.sk, name, refuse)
    res = run(get_problem("l-ARWHEAD:N=10:d=40"), SolverConfig(mode="arc", epsilon=1e-8))
    assert res.status == STATUS_GRADIENT_TOL and len(res.trace) > 3


def test_arc_holds_one_d_by_d_array():
    # at most: arc builds its model from Hessian-vector products, so its
    # largest array is the k x d Krylov basis (k = 104 here); the dense H it
    # reduced before was one array of 8 d^2 bytes, and a copy of it two
    d = 1000
    p = get_problem(f"l-ENGVAL1:N=100:d={d}")
    cfg = SolverConfig(mode="arc")
    first = run(p, cfg)
    tracemalloc.start()
    try:
        second = run(p, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert second.status == first.status == STATUS_GRADIENT_TOL
    assert peak <= 1.5 * 8 * d * d, f"traced peak {peak / (8 * d * d):.2f} d x d arrays"


def test_final_values_are_not_evaluated_again():
    base = get_problem("l-ARWHEAD:N=10:d=40")
    values, gradients = [], []

    def value(x):
        values.append(x)
        return base.value(x)

    def gradient(x):
        gradients.append(x)
        return base.gradient(x)

    p = dataclasses.replace(base, value=value, gradient=gradient)
    res = run(p, SolverConfig(mode="rarc-d", epsilon=1e-8, seed=0))
    accepted = sum(row.success for row in res.trace)
    assert res.status == STATUS_GRADIENT_TOL
    assert len(values) == 1 + len(res.trace)  # f(x0) and one trial value per iteration
    assert len(gradients) == 1 + accepted
    assert res.f_final == base.value(res.x_final)
    assert res.grad_norm_final == float(np.linalg.norm(base.gradient(res.x_final)))
