import ctypes
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from rsarc import (
    STATUS_INNER_FAILURE,
    InnerSolverError,
    InvalidDimensionError,
    InvalidInputError,
    SingularGramError,
    SolverConfig,
    build_model,
    check_termination,
    draw,
    get_problem,
    model_gradient,
    model_hessian,
    model_value,
    numerical_rank,
    run,
    solve,
    spectrum_rank,
)
from rsarc.sketch import SCALED_GAUSSIAN
from rsarc import _lapack, subproblem
from rsarc import solver as solver_mod
from rsarc.subproblem import krylov_model, lanczos, whiten
from helpers import (
    failing_lapack, fd_gradient, fd_jacobian, model_value_oracle, rel_err, secular_norm_oracle,
    solve_oracle, solve_secular_oracle,
)


def random_data(rng, l, f0=0.0, sigma=None, gram="random"):
    """The data (f0, g, H, sigma, G) of a random sketched model; G is None for the identity."""
    g = rng.standard_normal(l)
    h = rng.standard_normal((l, l))
    h = 0.5 * (h + h.T)
    if gram == "identity":
        gm = None
    else:
        a = rng.standard_normal((l, l + 3)) / np.sqrt(l)
        gm = a @ a.T
        gm = 0.5 * (gm + gm.T)
    sigma = sigma if sigma is not None else float(rng.uniform(0.5, 2.0))
    return f0, g, h, sigma, gm


def whitened(f0, g, h, sigma, gram):
    """The Euclidean model of a sketched model's data, its g and H (which the
    model does not keep), sigma and L^{-1} (None for the identity Gram)."""
    if gram is None:
        return build_model(f0, g, h), g, h, sigma, None
    g_t, h_t, linv = whiten(gram, g, h)
    return build_model(f0, g_t, h_t), g_t, h_t, sigma, linv


def random_model(rng, l, **kwargs):
    """A random Euclidean model, its g and H, and sigma."""
    return whitened(*random_data(rng, l, **kwargs))[:4]


def test_value_and_gradient_at_origin():
    g, h = np.array([1.0, -2.0]), np.eye(2)
    z = np.zeros(2)
    assert model_value(3.5, g, h, 1.0, z) == 3.5
    assert np.array_equal(model_gradient(g, h, 1.0, z), g)
    assert np.array_equal(model_hessian(h, 1.0, z), h)


def test_scalar_example():
    # f0 - 1 + 1/2 + 1/3 = f0 - 1/6 at s = -1; gradient 1 - 1 - 1 = -1
    g, h = np.array([1.0]), np.array([[1.0]])
    s = np.array([-1.0])
    assert model_value(5.0, g, h, 1.0, s) == pytest.approx(5.0 - 1.0 / 6.0, abs=1e-15)
    assert model_gradient(g, h, 1.0, s) == pytest.approx([-1.0], abs=1e-15)


def test_model_gradient_matches_finite_differences():
    rng = np.random.default_rng(50)
    for _ in range(10):
        m, g, h, sigma = random_model(rng, int(rng.integers(1, 5)))
        s = rng.standard_normal(g.shape[0])
        fd = fd_gradient(lambda v: model_value(m.f0, g, h, sigma, v), s)
        assert rel_err(fd, model_gradient(g, h, sigma, s)) < 1e-6


def test_model_hessian_matches_finite_differences():
    rng = np.random.default_rng(51)
    for _ in range(5):
        _, g, h, sigma = random_model(rng, 3)
        s = rng.standard_normal(3) + 0.5  # keep away from the nonsmooth origin
        fd = fd_jacobian(lambda v: model_gradient(g, h, sigma, v), s)
        assert rel_err(fd, model_hessian(h, sigma, s)) < 1e-5


def test_solve_one_dimensional_closed_form():
    g, h = np.array([1.0]), np.array([[1.0]])
    m = build_model(0.0, g, h)
    sol = solve(m, 1.0)
    assert sol.s_hat[0] == pytest.approx((1.0 - np.sqrt(5.0)) / 2.0, abs=1e-10)
    assert all(check_termination(0.0, g, h, 1.0, sol.s_hat, 0.1, 0.1))


def test_solve_zero_gradient_psd():
    g, h = np.zeros(3), np.diag([1.0, 2.0, 3.0])
    m = build_model(2.0, g, h)
    sol = solve(m, 1.0)
    assert np.array_equal(sol.s_hat, np.zeros(3))
    assert sol.model_value == 2.0
    assert all(check_termination(2.0, g, h, 1.0, sol.s_hat, 0.1, 0.1))


def test_solve_matches_grid_oracle_2d():
    rng = np.random.default_rng(52)
    xs = np.linspace(-10.0, 10.0, 401)
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([xg.ravel(), yg.ravel()], axis=1)
    for _ in range(20):
        data = random_data(rng, 2)
        m = whitened(*data)[0]
        oracle = float(np.min(model_value_oracle(*data, pts)))
        sol = solve(m, data[3])
        assert sol.model_value <= oracle + 1e-6


def test_solve_matches_descent_oracle():
    rng = np.random.default_rng(53)
    for l in (1, 2, 3, 5):
        for _ in range(5):
            data = random_data(rng, l)
            m, g, h, sigma, _ = whitened(*data)
            best = np.inf
            for _ in range(10):
                res = minimize(lambda s: model_value_oracle(*data, s), rng.standard_normal(l) * 2.0,
                               method="BFGS", options={"gtol": 1e-12, "maxiter": 500})
                best = min(best, res.fun)
            sol = solve(m, sigma)
            assert sol.model_value <= best + 1e-8
            assert all(check_termination(m.f0, g, h, sigma, sol.s_hat, 0.1, 0.1))


def test_newton_limit_small_sigma():
    rng = np.random.default_rng(54)
    a = rng.standard_normal((4, 4))
    h = a @ a.T + np.eye(4)  # safely positive definite
    g = rng.standard_normal(4)
    m = build_model(0.0, g, h)
    sol = solve(m, 1e-8)
    newton = -np.linalg.solve(h, g)
    assert rel_err(sol.s_hat, newton) < 1e-4


def test_model_decrease_identity():
    # f0 - q(s) >= sigma/3 ||S^T s||^3 whenever m(s) <= m(0)
    rng = np.random.default_rng(55)
    for _ in range(20):
        m, _, _, sigma = random_model(rng, int(rng.integers(1, 6)))
        sol = solve(m, sigma)
        assert sol.model_value <= m.f0
        lhs = sol.predicted_decrease
        rhs = sigma / 3.0 * sol.cubic_norm**3
        assert lhs >= rhs - 1e-12 * max(1.0, abs(rhs))


def test_secular_residual_bound():
    rng = np.random.default_rng(56)
    for _ in range(20):
        m, g, h, sigma = random_model(rng, int(rng.integers(1, 6)))
        sol = solve(m, sigma)
        grad_norm = np.linalg.norm(model_gradient(g, h, sigma, sol.s_hat))
        assert grad_norm <= 1e-10 * (1.0 + np.linalg.norm(g))


def test_the_evaluation_cap_ends_the_secular_solve(monkeypatch):
    # _MAX_INNER bounds the evaluations, bracketing included: a cap at the
    # count a solve needs still solves it, one fewer raises
    rng = np.random.default_rng(57)
    m, _, _, sigma = random_model(rng, 6)
    needed = solve(m, sigma).inner_iterations
    assert needed > 2
    monkeypatch.setattr(subproblem, "_MAX_INNER", needed)
    assert solve(m, sigma).inner_iterations == needed
    for cap in (needed - 1, 1):
        monkeypatch.setattr(subproblem, "_MAX_INNER", cap)
        with pytest.raises(InnerSolverError, match=f"in {cap} evaluations"):
            solve(m, sigma)


@pytest.mark.parametrize("gram", ["random", "identity"])
def test_predicted_decrease_matches_the_quadratic_oracle(gram):
    # solve evaluates f0 - q(u) in its eigenbasis; compare with the sketched
    # model's q(s) at s = L^{-T} u
    rng = np.random.default_rng(60)
    for l in (1, 2, 4, 7, 12):
        for _ in range(5):
            _, g, h, _, gm = data = random_data(rng, l, gram=gram)
            m, g_t, h_t, sigma, linv = whitened(*data)
            sol = solve(m, sigma)
            s = sol.s_hat if linv is None else linv.T @ sol.s_hat
            gs, shs = float(g @ s), float(s @ h @ s)
            scale = abs(gs) + abs(shs) + 1e-300
            assert abs(sol.predicted_decrease + (gs + 0.5 * shs)) <= 1e-10 * scale
            grad_norm = np.linalg.norm(model_gradient(g_t, h_t, sigma, sol.s_hat))
            assert grad_norm <= 1e-9 * (1.0 + np.linalg.norm(g_t))


def test_cubic_norm_consistent():
    rng = np.random.default_rng(57)
    m, _, _, sigma = random_model(rng, 4)
    sol = solve(m, sigma)
    assert sol.cubic_norm == pytest.approx(np.linalg.norm(sol.s_hat), rel=1e-10, abs=1e-12)


def test_hard_case_eigenvector_correction():
    # gradient orthogonal to the minimal eigenspace, sigma small enough
    # that the interior solution is too short
    lam = np.array([-2.0, 1.0, 3.0])
    g = np.array([0.0, 0.3, -0.4])
    sigma = 0.1
    m = build_model(0.0, g, np.diag(lam))
    sol = solve(m, sigma)
    assert sol.hard_case and sol.mu == 2.0
    # at the hard-case solution sigma*||s|| equals -lambda_min exactly
    assert sigma * sol.cubic_norm == pytest.approx(2.0, rel=1e-12)
    assert np.linalg.norm(model_gradient(g, np.diag(lam), sigma, sol.s_hat)) < 1e-12
    rng = np.random.default_rng(58)
    best = np.inf
    for _ in range(20):
        res = minimize(lambda s: model_value_oracle(0.0, g, np.diag(lam), sigma, None, s),
                       rng.standard_normal(3) * 10.0,
                       method="BFGS", options={"gtol": 1e-12, "maxiter": 500})
        best = min(best, res.fun)
    assert sol.model_value <= best + 1e-8


def test_hard_case_zero_gradient_negative_curvature():
    m = build_model(1.0, np.zeros(2), np.diag([-3.0, 1.0]))
    sol = solve(m, 1.5)
    assert sol.cubic_norm == pytest.approx(2.0, rel=1e-12)  # ||s|| = -lam1/sigma
    assert sol.model_value < 1.0


def test_check_termination_cases():
    rng = np.random.default_rng(59)
    m, g, h, sigma = random_model(rng, 3)
    sol = solve(m, sigma)
    assert check_termination(m.f0, g, h, sigma, sol.s_hat, 0.1, 0.1) == (True, True, True)

    flags = check_termination(m.f0, g, h, sigma, np.zeros(3), 0.1, 0.1)
    assert flags[0] is True and flags[1] is False  # zero step, nonzero gradient

    assert check_termination(0.0, np.zeros(2), np.eye(2), 1.0, np.zeros(2), 0.1, 0.1) == (True, True, True)


def test_singular_gram_rejected():
    with pytest.raises(SingularGramError):
        whiten(np.ones((2, 2)), np.ones(2), np.eye(2))


def test_nonpositive_sigma_rejected():
    m = build_model(0.0, np.ones(2), np.eye(2))
    for sigma in (0.0, -1.0, float("nan")):
        with pytest.raises(InvalidInputError, match="sigma"):
            solve(m, sigma)


def test_gram_shape_mismatch():
    for call in (
        lambda: whiten(np.eye(2), np.ones(2), np.eye(3)),
        lambda: whiten(np.eye(3), np.ones(2), np.eye(2)),
        lambda: build_model(0.0, np.ones(2), np.eye(3)),
    ):
        with pytest.raises(InvalidDimensionError):
            call()


def test_whitening_by_the_identity_gram_changes_nothing():
    # arc's model, which is never whitened, is the one the identity Gram gives:
    # L = L^{-1} = I, so g and a symmetric H come back bit for bit
    rng = np.random.default_rng(61)
    for l in (1, 2, 4, 7, 12):
        _, g, h, _, _ = random_data(rng, l, gram="identity")
        g_t, h_t, linv = whiten(np.eye(l), g, h)
        assert np.array_equal(linv, np.eye(l))
        assert np.array_equal(g_t, g) and np.array_equal(h_t, h)


def test_a_whitened_solve_reaches_the_minimum_of_the_sketched_model():
    # whiten, build_model, solve and s = L^{-T} u minimize the Gram-coupled
    # m(s) = f0 + g.s + s.H s / 2 + sigma/3 (s.G s)^(3/2), checked with the
    # brute-force oracles of criterion 4: a grid for l <= 2, BFGS from ten
    # starts above
    rng = np.random.default_rng(69)
    xs = np.linspace(-10.0, 10.0, 401)
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    grid = {1: xs[:, None], 2: np.stack([xg.ravel(), yg.ravel()], axis=1)}
    for l in (1, 2, 3, 4, 5):
        for _ in range(5):
            data = random_data(rng, l)
            m, _, _, sigma, linv = whitened(*data)
            sol = solve(m, sigma)
            s = linv.T @ sol.s_hat
            value = float(model_value_oracle(*data, s))
            assert value == pytest.approx(sol.model_value, rel=1e-10, abs=1e-12)
            assert np.sqrt(s @ data[4] @ s) == pytest.approx(sol.cubic_norm, rel=1e-10)
            if l in grid:
                ref = float(np.min(model_value_oracle(*data, grid[l])))
            else:
                ref = min(minimize(lambda v: model_value_oracle(*data, v), 2.0 * rng.standard_normal(l),
                                   method="BFGS", options={"gtol": 1e-12, "maxiter": 500}).fun
                          for _ in range(10))
            assert value <= ref + 1e-6


def test_rank_of_the_solve_spectrum_with_identity_gram():
    # with G = I the model decomposes H itself: ranking its spectrum gives
    # numerical_rank(H), including on exactly low-rank matrices
    rng = np.random.default_rng(62)
    for l in (3, 8, 20, 51):
        for r in sorted({0, 1, l // 3, l - 1, l}):
            q, _ = np.linalg.qr(rng.standard_normal((l, l)))
            lam = np.zeros(l)
            lam[:r] = rng.choice([-1.0, 1.0], r) * rng.uniform(0.1, 10.0, r)
            h = (q * lam) @ q.T
            h = 0.5 * (h + h.T)
            m = build_model(0.0, rng.standard_normal(l), h)
            got = spectrum_rank(m.eigenvalues, 1e-10)
            assert got == numerical_rank(h, 1e-10) == r


def _assert_same_solution(a, b):
    for name, value in vars(a).items():
        other = getattr(b, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, other), name
        else:
            assert value == other, name


@pytest.mark.parametrize("gram", ["random", "identity"])
def test_a_solve_from_the_last_spectrum_equals_a_fresh_solve(gram):
    # a rejected step changes sigma only: the model carries over as it is,
    # and its solve equals that of a model built afresh from g and H
    rng = np.random.default_rng(64)
    for l in (1, 2, 5, 12):
        for _ in range(5):
            m, g, h, sigma0 = random_model(rng, l, gram=gram)
            solve(m, sigma0)  # the solver solves a model before it reuses it
            for factor in (2.0, 4.0, 0.5):
                sigma = factor * sigma0
                _assert_same_solution(solve(m, sigma), solve(build_model(m.f0, g, h), sigma))


def test_a_solve_from_the_last_spectrum_keeps_the_hard_case():
    g, h = np.array([0.0, 0.3, -0.4]), np.diag([-2.0, 1.0, 3.0])
    m = build_model(0.0, g, h)
    prev = solve(m, 0.1)
    for sigma in (0.2, 0.4, 50.0):
        fresh = solve(build_model(0.0, g, h), sigma)
        _assert_same_solution(solve(m, sigma), fresh)
    assert prev.hard_case and solve(m, 0.2).hard_case
    assert not fresh.hard_case  # sigma = 50: the interior step is long enough


def test_the_whitened_spectrum_ranks_the_sketched_hessian():
    # L^{-1} S H S^T L^{-T} is congruent to S H S^T (Sylvester's law of
    # inertia), and the Gram's conditioning does not move an eigenvalue
    # across the relative threshold on these problems.  As in the solver,
    # S H S^T is whitened and decomposed as the problem returns it
    selectors = ["l-QUADRANK:N=20:rank=5:d=60"] + [
        f"l-{name}:N=10:d=40" for name in ("ARWHEAD", "POWER", "COSINE", "ENGVAL1")
    ]
    problems = [get_problem(sel) for sel in selectors]
    rng = np.random.default_rng(65)
    mismatches = []
    for trial in range(1000):
        p = problems[trial % len(problems)]
        x = rng.standard_normal(p.dim)
        s = draw(SCALED_GAUSSIAN, int(rng.integers(1, 25)), p.dim, rng)
        h = p.sketched_hessian(x, s.matrix)
        m = build_model(0.0, *whiten(s.gram(), s.matrix @ p.gradient(x), h)[:2])
        got = spectrum_rank(m.eigenvalues, 1e-10)
        want = numerical_rank(0.5 * (h + h.T), 1e-10)
        if got != want:
            mismatches.append((p.name, s.matrix.shape[0], got, want))
    assert not mismatches


needs_lapack = pytest.mark.skipif(not _lapack.available(), reason="numpy's OpenBLAS exports no LAPACK")
EPS = np.finfo(float).eps


def _large_instance(n, rank, gram, seed=66):
    rng = np.random.default_rng(seed)
    r = n if rank == "full" else rank
    b = rng.standard_normal((n, r))
    h = (b * rng.standard_normal(r)) @ b.T
    h = 0.5 * (h + h.T)
    gm = None if gram is None else draw(SCALED_GAUSSIAN, n, 2 * n, rng).gram()
    return rng.standard_normal(n), h, gm, rng


@needs_lapack
@pytest.mark.parametrize("gram", [None, "gaussian"])
@pytest.mark.parametrize("rank", ["full", 50])
@pytest.mark.parametrize("n", [subproblem._FACTORED_MIN, 300])
def test_the_factored_eigenbasis_matches_eigh(monkeypatch, n, rank, gram):
    # from _FACTORED_MIN on the model keeps V = Q blockdiag(Z_m, I) factored.
    # At full rank nothing is dropped: the spectrum is eigh's bit for bit, and
    # the eigenbasis products agree to rounding.  At rank 50 the reduction
    # stops early: each eigenvalue moves by at most the dropped block, and the
    # eigenbasis, arbitrary on the null space, is checked through the solve
    # and a round trip.  A Gram whitens the model first
    g, h, gm, rng = _large_instance(n, rank, gram)
    if gm is not None:
        g, h, _ = whiten(gm, g, h)
    consumed = h.copy()
    factored = build_model(0.0, g, consumed)
    monkeypatch.setattr(subproblem, "_FACTORED_MIN", n + 1)
    explicit = build_model(0.0, g, h)
    assert factored.reflectors is not None and explicit.reflectors is None
    y = rng.standard_normal(n)
    if rank == "full":
        assert np.array_equal(factored.eigenvalues, explicit.eigenvalues)
        vecs = explicit.eigenvectors  # eigh's explicit V
        assert rel_err(subproblem._to_eigenbasis(factored, g), vecs.T @ g) <= 1e-12
        assert rel_err(subproblem._from_eigenbasis(factored, y), vecs @ y) <= 1e-12
    else:
        assert factored.eigenvectors.shape[0] < n
        bound = 10 * n * EPS * np.linalg.norm(h)
        assert np.max(np.abs(factored.eigenvalues - explicit.eigenvalues)) <= bound
        round_trip = subproblem._from_eigenbasis(factored, subproblem._to_eigenbasis(factored, y))
        assert rel_err(round_trip, y) <= 1e-12
    a, b = solve(factored, 0.7), solve(explicit, 0.7)
    assert rel_err(a.s_hat, b.s_hat) <= 1e-10
    assert a.mu == pytest.approx(b.mu, rel=1e-10)
    assert a.predicted_decrease == pytest.approx(b.predicted_decrease, rel=1e-10)
    assert a.hard_case == b.hard_case
    # H is reduced in place, into the reflectors
    assert np.shares_memory(factored.reflectors, consumed)


@needs_lapack
@pytest.mark.parametrize("gram", [None, "gaussian"])
@pytest.mark.parametrize("n", [subproblem._FACTORED_MIN, 224])
def test_the_termination_oracle_accepts_a_factored_solve(n, gram):
    # a factored model reduces its H in place and keeps none; the oracle
    # checks its solution against the H the model was built from
    g, h, gm, _ = _large_instance(n, "full", gram)
    if gm is not None:
        g, h, _ = whiten(gm, g, h)
    model = build_model(0.0, g, h.copy())
    assert model.reflectors is not None
    assert check_termination(0.0, g, h, 0.7, solve(model, 0.7).s_hat, 0.1, 0.1) == (True, True, True)


@needs_lapack
def test_the_factored_eigenbasis_keeps_the_hard_case(monkeypatch):
    n = subproblem._FACTORED_MIN
    rng = np.random.default_rng(67)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = np.concatenate([[-2.0], rng.uniform(1.0, 3.0, n - 1)])
    h = (q * lam) @ q.T
    h = 0.5 * (h + h.T)
    g = q[:, 1:] @ rng.uniform(-1e-3, 1e-3, n - 1)  # no component along the minimal eigenvector
    factored = solve(build_model(0.0, g, h.copy()), 0.5)
    monkeypatch.setattr(subproblem, "_FACTORED_MIN", n + 1)
    explicit = solve(build_model(0.0, g, h), 0.5)
    assert factored.hard_case and explicit.hard_case
    assert factored.mu == explicit.mu
    assert rel_err(factored.s_hat, explicit.s_hat) <= 1e-10


@needs_lapack
@pytest.mark.parametrize("routine", ["dsytd2", "dstedc", "dormqr"])
def test_a_failed_lapack_call_raises_a_typed_error(monkeypatch, routine):
    # a nonzero info from a bound routine is an inner failure, not a crash;
    # a full-rank matrix runs the reduction to its last block, dsytd2
    g, h, _, _ = _large_instance(subproblem._FACTORED_MIN, "full", None)
    monkeypatch.setitem(_lapack._routines(), routine, failing_lapack(routine, 7))
    with pytest.raises(InnerSolverError, match=f"{routine} failed with info = 7"):
        solve(build_model(0.0, g, h), 1.0)
    # a sketched model of order 200 is factored; arc's T_k goes to dstedc alone
    res = run(get_problem("QUADRANK:N=200"), SolverConfig(mode="rarc", l0=200))
    assert res.status == STATUS_INNER_FAILURE and res.trace == []


def test_a_missing_lapack_symbol_makes_the_binding_unavailable(monkeypatch):
    monkeypatch.setitem(_lapack._BINDINGS, "dormqr", ("dormqr_nonexistent", []))
    _lapack._routines.cache_clear()
    try:
        assert not _lapack.available()
    finally:
        monkeypatch.undo()
        _lapack._routines.cache_clear()


@pytest.mark.parametrize("routine", sorted(_lapack._BINDINGS))
def test_without_every_symbol_a_model_takes_eigh(monkeypatch, routine):
    symbol, argtypes = _lapack._BINDINGS[routine]
    monkeypatch.setitem(_lapack._BINDINGS, routine, (symbol + "_nonexistent", argtypes))
    _lapack._routines.cache_clear()
    try:
        g, h, _, _ = _large_instance(subproblem._FACTORED_MIN, 50, None)
        model = build_model(0.0, g, h)
        assert not _lapack.available() and model.reflectors is None
    finally:
        monkeypatch.undo()
        _lapack._routines.cache_clear()


_COL_MAJOR, _INT, _PTR, _CHAR = 102, ctypes.c_int64, ctypes.c_void_p, ctypes.c_char


def _lapacke(routine, argtypes):
    """numpy's OpenBLAS's ``LAPACKE_<routine>``, the reference the Fortran calls are checked against."""
    return _lapack._bind({routine: (f"scipy_LAPACKE_{routine}64_", argtypes, _INT)})[routine]


def _lapacke_dsytrd(a):
    """LAPACKE's own dsytrd ('L') on a copy of ``a``: reflectors, d, e, tau."""
    # layout, uplo, n, a, lda, d, e, tau
    fn = _lapacke("dsytrd", [ctypes.c_int, _CHAR, _INT, _PTR, _INT] + [_PTR] * 3)
    n = a.shape[0]
    a = np.array(a, order="F")
    d, e, tau = np.empty(n), np.empty(n - 1), np.empty(n - 1)
    assert fn(_COL_MAJOR, b"L", n, a.ctypes.data, n, d.ctypes.data, e.ctypes.data, tau.ctypes.data) == 0
    return a, d, e, tau


@needs_lapack
@pytest.mark.parametrize("n", [31, 32, 33, 200, 300])
def test_a_full_reduction_is_lapackes_dsytrd_bit_for_bit(n):
    # below the first panel width the loop is dsytd2 alone, above it dsytrd's blocks
    _, h, _, _ = _large_instance(n, "full", None)
    want = _lapacke_dsytrd(h)
    a = np.array(h, order="F")
    d, e, tau = _lapack.tridiagonalize(a)
    for got, expected in zip((a, d, e, tau), want):
        assert got.shape == expected.shape and np.array_equal(got, expected)


#: orders on both sides of dstedc's switch from dsteqr to divide and conquer
#: (SMLSIZ = 25), and n = 1, whose workspace is its own case
_EIGH_ORDERS = [1, 2, 25, 26, 128, 224]


@needs_lapack
@pytest.mark.parametrize("n, split", [(n, None) for n in _EIGH_ORDERS] + [(128, 20)],
                         ids=[str(n) for n in _EIGH_ORDERS] + ["128-split"])
def test_tridiagonal_eigh_is_lapackes_dstedc_bit_for_bit(n, split):
    # LAPACKE queries dstedc's workspace; tridiagonal_eigh passes the documented
    # minimum.  A zero coupling splits T into blocks of 21 and 107, which
    # dstedc solves apart, one by dsteqr and one by divide and conquer
    rng = np.random.default_rng(70 + n)
    d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    if split is not None:
        e[split] = 0.0
    # layout, compz, n, d, e, z, ldz
    fn = _lapacke("dstedc", [ctypes.c_int, _CHAR, _INT, _PTR, _PTR, _PTR, _INT])
    want_d, want_e, want_z = d.copy(), e.copy(), np.empty((n, n), order="F")
    assert fn(_COL_MAJOR, b"I", n, want_d.ctypes.data, want_e.ctypes.data, want_z.ctypes.data, n) == 0
    got_d, got_z = _lapack.tridiagonal_eigh(d, e)
    assert np.array_equal(got_d, want_d) and np.array_equal(got_z, want_z)


@needs_lapack
@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("n", _EIGH_ORDERS)
def test_apply_q_is_lapackes_dormqr_bit_for_bit(n, transpose):
    _, h, _, rng = _large_instance(n, "full", None)
    a = np.array(h, order="F")
    tau = _lapack.tridiagonalize(a)[2]
    v = rng.standard_normal(n)
    # layout, side, trans, m, n, k, a, lda, tau, c, ldc, work, lwork
    fn = _lapacke("dormqr_work", [ctypes.c_int, _CHAR, _CHAR, _INT, _INT, _INT, _PTR, _INT, _PTR, _PTR, _INT,
                                  _PTR, _INT])
    want, work = v.copy(), np.empty(1)
    assert fn(_COL_MAJOR, b"L", b"T" if transpose else b"N", n - 1, 1, n - 1, a[1:].ctypes.data, n,
              tau.ctypes.data, want[1:].ctypes.data, max(1, n - 1), work.ctypes.data, 1) == 0
    assert np.array_equal(_lapack.apply_q(a, tau, v, transpose), want)


@needs_lapack
@pytest.mark.parametrize("call", [
    lambda: _lapack.tridiagonalize(np.eye(4)),  # C-ordered
    lambda: _lapack.tridiagonalize(np.ones((3, 4), order="F")),
    lambda: _lapack.tridiagonalize(np.eye(4, dtype=np.float32, order="F")),
    lambda: _lapack.tridiagonalize(np.empty((0, 0), order="F")),
    lambda: _lapack.tridiagonal_eigh(np.ones(4), np.ones(4)),
    lambda: _lapack.apply_q(np.eye(4, order="F"), np.zeros(4), np.ones(4), transpose=True),
    lambda: _lapack.apply_q(np.eye(4, order="F"), np.zeros(3), np.ones(5), transpose=True),
], ids=["c-order", "not-square", "float32", "empty", "off-length", "too-many-reflectors", "vector-length"])
def test_the_binding_refuses_an_array_lapack_would_reject(call):
    # arrays are checked in Python, so LAPACK's own argument checks are never reached
    with pytest.raises(InvalidDimensionError):
        call()


def test_the_binding_passes_every_array_by_the_address_of_its_first_element():
    # ctypes reads a contiguous writeable array's address from its buffer; every
    # other array takes numpy's own ctypes.data
    c, f = np.arange(12.0).reshape(3, 4), np.asfortranarray(np.arange(12.0).reshape(3, 4))
    frozen = np.arange(3.0)
    frozen.flags.writeable = False
    for a in (c, f, c[1:], f[:, 1:], f[1:, 1:], c[:, 1:], np.empty(0), np.empty((0, 3), order="F"), frozen,
              np.zeros(1, dtype=np.int64)):
        assert _lapack._address(a) == a.ctypes.data


def _explicit_q(reflectors, tau):
    n = reflectors.shape[0]
    return np.column_stack([_lapack.apply_q(reflectors, tau, col, transpose=False) for col in np.eye(n)])


@needs_lapack
@pytest.mark.parametrize("rank", [0, 10, 50])
def test_a_low_rank_reduction_stops_at_the_first_panel_past_the_rank(rank):
    # H's Krylov space from e_1 has dimension rank + 1, so the coupling and the
    # trailing block fall to rounding noise at the first panel end past it; the
    # zero matrix (rank 0) stops at the first panel end, where ||H||_F = 0
    n = 300
    _, h, _, _ = _large_instance(n, rank, None)
    a = np.array(h, order="F")
    d, e, tau = _lapack.tridiagonalize(a)
    nb = _lapack._block_sizes(n)[0]
    m = nb * -(-(rank + 1) // nb)
    assert (d.shape, e.shape, tau.shape) == ((m,), (m - 1,), (m - 1,))
    t = np.zeros((n, n))
    t[:m, :m] = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    q = _explicit_q(a, tau)
    assert np.linalg.norm(q @ t @ q.T - h) <= 10 * n * EPS * np.linalg.norm(h)
    assert np.linalg.norm(q.T @ q - np.eye(n)) <= 10 * n * EPS


@needs_lapack
def test_a_matrix_whose_squares_overflow_is_reduced_to_the_end():
    # ||H||_F^2 overflows at entries of about 1e160; the stop rule's norm does
    # not, so a full-rank matrix drops nothing and T scales with H
    n = 200
    _, h, _, _ = _large_instance(n, "full", None)
    scale = 2.0**530
    d, e, _ = _lapack.tridiagonalize(np.array(scale * h, order="F"))
    want_d, want_e, _ = _lapack.tridiagonalize(np.array(h, order="F"))
    assert (d.shape, e.shape) == ((n,), (n - 1,))
    assert rel_err(d / scale, want_d) <= 1e-12 and rel_err(e / scale, want_e) <= 1e-12


@pytest.mark.parametrize("n", [40, subproblem._FACTORED_MIN])
def test_the_model_reads_one_triangle_of_h(n):
    # eigh (n < _FACTORED_MIN) and the reduction both read the upper triangle
    # of a C-ordered H, so large noise below its diagonal changes no eigenvalue
    g, h, _, rng = _large_instance(n, "full", None)
    noisy = h + np.tril(1e6 * rng.standard_normal((n, n)), -1)
    a, b = build_model(0.0, g, noisy), build_model(0.0, g, h.copy())
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


@needs_lapack
def test_a_truncated_model_keeps_the_hard_case(monkeypatch):
    # rank 20 with one negative eigenvalue and no gradient along its eigenvector:
    # the merged spectrum's null space keeps the hard case of the explicit solve
    n, r = 300, 20
    rng = np.random.default_rng(68)
    q = np.linalg.qr(rng.standard_normal((n, r)))[0]
    lam = np.concatenate([[-2.0], rng.uniform(1.0, 3.0, r - 1)])
    h = (q * lam) @ q.T
    h = 0.5 * (h + h.T)
    g = q[:, 1:] @ rng.uniform(-1e-3, 1e-3, r - 1) + 1e-4 * (np.eye(n) - q @ q.T) @ rng.standard_normal(n)
    model = build_model(0.0, g, h.copy())
    assert model.eigenvectors.shape[0] < n and np.count_nonzero(model.eigenvalues == 0.0) > 0
    factored = solve(model, 0.5)
    monkeypatch.setattr(subproblem, "_FACTORED_MIN", n + 1)
    explicit = solve(build_model(0.0, g, h), 0.5)
    assert factored.hard_case and explicit.hard_case
    assert factored.mu == pytest.approx(explicit.mu, rel=1e-10)
    assert rel_err(factored.s_hat, explicit.s_hat) <= 1e-10
    assert factored.predicted_decrease == pytest.approx(explicit.predicted_decrease, rel=1e-10)


@needs_lapack
def test_a_sketched_model_keeps_only_the_reduced_order(monkeypatch):
    # rarc at l = 150 on a rank-20 function: every model stops below l, and the
    # run takes the path of one whose reduction drops nothing but exact zeros
    p = get_problem("l-QUADRANK:N=20:d=400")
    cfg = SolverConfig(mode="rarc", l0=150, seed=3)
    orders = []
    build = subproblem.build_model

    def recorded(*args, **kwargs):
        model = build(*args, **kwargs)
        orders.append(model.eigenvectors.shape[0])
        return model

    monkeypatch.setattr(solver_mod.sp, "build_model", recorded)
    truncated = run(p, cfg)
    assert orders and max(orders) < 150
    orders.clear()
    monkeypatch.setattr(_lapack, "_DROP_TOL", 0.0)
    full = run(p, cfg)
    assert orders and min(orders) == 150
    assert (truncated.status, len(truncated.trace)) == (full.status, len(full.trace))


def _krylov_model(p, x):
    """The Lanczos basis of ``p`` at x and the model on it: gradient ||g|| e_1, Hessian T_k."""
    g = p.gradient(x)
    basis, alpha, beta = lanczos(p.hmul(x), g)
    return basis, krylov_model(p.value(x), np.linalg.norm(g), alpha, beta)


@pytest.mark.parametrize("selector", [
    *(f"{name}:N=30" for name in ("ARWHEAD", "COSINE", "ENGVAL1", "POWER", "NONDQUAR", "ROSENCHAIN")),
    "QUADRANK:N=30:rank=10",
    *(f"l-{name}:N=20:d=60" for name in ("ARWHEAD", "COSINE", "ENGVAL1", "POWER", "NONDQUAR", "ROSENCHAIN")),
    "l-QUADRANK:N=20:rank=5:d=60",
])
def test_the_lanczos_model_steps_as_the_dense_model(selector):
    # outside the hard case the minimizer over K(H, g) is the full-space one
    p = get_problem(selector)
    rng = np.random.default_rng(71)
    for _ in range(3):
        x = p.x0 + rng.standard_normal(p.dim)
        basis, krylov = _krylov_model(p, x)
        assert np.linalg.norm(basis @ basis.T - np.eye(basis.shape[0])) <= 1e-13
        dense = build_model(p.value(x), p.gradient(x), p.hessian(x))
        for sigma in (1.0, 10.0):
            a, b = solve(krylov, sigma), solve(dense, sigma)
            assert not (a.hard_case or b.hard_case)
            assert rel_err(basis.T @ a.s_hat, b.s_hat) <= 1e-10
            assert a.predicted_decrease == pytest.approx(b.predicted_decrease, rel=1e-10)


def test_lanczos_on_a_lifted_problem_ends_past_the_rank():
    # K(H, g) lies in range(Q), so the couplings fall to rounding within a few
    # steps past r = 20, and T_k has rank r
    p = get_problem("l-ENGVAL1:N=20:d=300")
    basis, model = _krylov_model(p, p.x0)
    assert 20 <= basis.shape[0] <= 25
    assert spectrum_rank(model.eigenvalues) == 20


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("at", [1, 2])
def test_a_non_finite_product_stops_lanczos_at_once(bad, at):
    h = np.diag(np.arange(1.0, 51.0))
    calls = []

    def hmul(v):
        calls.append(v)
        w = h @ v
        if len(calls) == at:
            w[-1] = bad
        return w

    basis, alpha, beta = lanczos(hmul, np.ones(50))
    assert len(calls) == at and basis.shape == (at, 50) and (alpha.shape, beta.shape) == ((at,), (at - 1,))
    assert not np.isfinite(alpha[-1]) and np.all(np.isfinite(alpha[:-1])) and np.all(np.isfinite(beta))


def test_lanczos_scales_with_a_hessian_whose_squares_overflow():
    # ||H v||^2 and ||T_k||_F^2 overflow at entries of about 1e160; the norms
    # Lanczos tests do not, so it runs the same steps and T_k scales with H
    h = np.diag(np.arange(1.0, 41.0))
    g = np.ones(40)
    basis, alpha, beta = lanczos(lambda v: h @ v, g)
    big_basis, big_alpha, big_beta = lanczos(lambda v: 1e160 * (h @ v), g)
    assert basis.shape == big_basis.shape == (40, 40)
    assert rel_err(big_alpha / 1e160, alpha) <= 1e-12 and rel_err(big_beta / 1e160, beta) <= 1e-12


def _random_tridiagonal(n):
    rng = np.random.default_rng(80 + n)
    return rng.standard_normal(n), np.abs(rng.standard_normal(n - 1))


def _lanczos_tridiagonal(selector):
    p = get_problem(selector)
    return lanczos(p.hmul(p.x0), p.gradient(p.x0))[1:]


@needs_lapack
@pytest.mark.parametrize("make, arg", [
    *((_random_tridiagonal, n) for n in (1, 2, 25, 26, 104, 139, 200)),
    (_lanczos_tridiagonal, "l-ENGVAL1:N=100:d=300"),  # k = 104
    (_lanczos_tridiagonal, "ROSENCHAIN:N=150"),
])
def test_a_krylov_model_decomposes_t_as_eigh_does_bit_for_bit(make, arg):
    # dstedc on (alpha, beta) is what eigh runs on the dense T after a reduction
    # that leaves a tridiagonal T as it is; orders on both sides of dstedc's
    # SMLSIZ = 25 and of _FACTORED_MIN, from which build_model does not take eigh
    alpha, beta = make(arg)
    n = alpha.shape[0]
    lam, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
    model = krylov_model(0.0, 2.0, alpha, beta)
    assert np.array_equal(model.eigenvalues, lam) and np.array_equal(model.eigenvectors, vecs)
    assert model.eigenvectors.flags.c_contiguous  # so that solve's V y rounds as eigh's would
    assert np.array_equal(model.w, vecs.T @ (2.0 * np.eye(n)[0]))


def test_a_krylov_model_refuses_an_off_diagonal_of_the_wrong_length():
    with pytest.raises(InvalidDimensionError, match="off-diagonal"):
        krylov_model(0.0, 1.0, np.ones(3), np.ones(3))


@pytest.mark.parametrize("g", [np.zeros(3), np.array([1.0, math.nan, 0.0])])
def test_lanczos_refuses_a_zero_or_non_finite_start(g):
    with pytest.raises(InvalidInputError, match="nonzero finite g"):
        lanczos(lambda v: v, g)


# The secular solve and solve against the oracles of tests/helpers.py, which
# are the code before its per-call overhead was cut: every value, every
# evaluation count and every error is theirs, bit for bit.

_SIGMAS = [float(sigma) for sigma in np.logspace(-12, 8, 21)]  # Python floats, as the solver's


def _bits(value):
    """A value as its bits: an array by dtype, shape and bytes, a float by its bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (float, np.floating)):
        return np.float64(value).tobytes()
    return value


def _outcome(fn, *args):
    """fn(*args) as bits (a solution field by field, or a secular solve's (mu, evals)),
    or the type and message of the error it raises.  Both sides run with every
    floating-point error ignored: the oracles warn where solve's scope is silent."""
    with np.errstate(all="ignore"):
        try:
            out = fn(*args)
        except (InnerSolverError, InvalidInputError) as exc:
            return type(exc).__name__, str(exc)
    if isinstance(out, tuple):
        return tuple(_bits(v) for v in out)
    return {name: _bits(v) for name, v in vars(out).items()}


def _assert_solves_as_the_oracle(m, sigmas=_SIGMAS):
    """solve equals solve_oracle, and the secular solve and its evaluations equal
    theirs, at each sigma; returns solve's outcomes."""
    lam, w = m.eigenvalues, m.w
    w2 = w**2
    zero = None if w2.all() else w2 == 0.0
    wnorm = float(np.linalg.norm(w))
    outcomes = []
    for sigma in sigmas:
        new = _outcome(solve, m, sigma)
        assert new == _outcome(solve_oracle, m, sigma), sigma
        assert _outcome(subproblem._solve_secular, lam, w, wnorm, sigma) == \
            _outcome(solve_secular_oracle, lam, w, wnorm, sigma), sigma
        outcomes.append(new)
    mu_lo = max(0.0, -float(lam[0]))
    with np.errstate(all="ignore"):
        for mu in mu_lo + np.array([0.0, 1e-14, 1e-6, 1.0, 1e6]):
            nrm, denom = subproblem._secular_norm(mu, lam, w2, zero)
            want, slope = secular_norm_oracle(mu, lam, w2)
            assert _bits(nrm) == _bits(want), mu
            if math.isfinite(nrm):
                assert _bits(subproblem._secular_slope(nrm, denom, w2, zero)) == _bits(slope), mu
    return outcomes


def _diagonal_model(lam, w):
    """The model of eigenvalues ``lam`` (ascending) and gradient ``w`` in the eigenbasis I."""
    m = subproblem.SketchedCubicModel(0.0, np.array(lam, dtype=float), np.eye(len(lam)))
    m.w = np.array(w, dtype=float)
    return m


@pytest.mark.parametrize("l", [1, 2, 51, 104, 200])
def test_solve_is_the_oracle_bit_for_bit_on_random_models(l):
    # dense models by eigh, factored ones from _FACTORED_MIN on (l = 200, full
    # rank and rank 20), and Krylov models of a random tridiagonal
    rng = np.random.default_rng(90 + l)
    models = []
    for rank in (l, min(l, 20)):
        for _ in range(2):
            b = rng.standard_normal((l, rank))
            h = (b * rng.standard_normal(rank)) @ b.T * 10.0 ** rng.uniform(-3, 3)
            models.append(build_model(1.0, rng.standard_normal(l) * 10.0 ** rng.uniform(-3, 3), h))
    models.append(krylov_model(1.0, 2.0, rng.standard_normal(l), np.abs(rng.standard_normal(l - 1))))
    if l >= subproblem._FACTORED_MIN and _lapack.available():
        assert all(m.reflectors is not None for m in models[:4])
        assert models[2].eigenvectors.shape[0] < l  # the rank-20 reduction stopped early
    for m in models:
        outcomes = _assert_solves_as_the_oracle(m)
        assert all(isinstance(out, dict) for out in outcomes)


@pytest.mark.parametrize("lam, w, reached", [
    ([-1.0, 0.5, 2.0, 3.0], [0.0, 1.0, 0.0, -2.0], {"hard case", "not hard"}),
    ([1.0, 2.0, 3.0], [1e-170, 1.0, 0.0], {"not hard"}),  # a nonzero w whose square underflows
    ([0.5, 1.0], [0.0, 0.0], {"not hard"}),  # g = 0 and H >= 0: the zero step
    ([-1.0, 1.0], [0.0, 0.0], {"hard case"}),
    ([-2.0, 1.0, 3.0], [0.0, 0.3, -0.4], {"hard case", "not hard"}),
    ([-2.0, -2.0, 1.0, 3.0], [0.0, 0.0, 0.3, -0.4], {"hard case", "not hard"}),
    ([-2.0, 1.0, 3.0], [4e-13, 0.3, -0.4], {"hard case", "not hard"}),  # near miss, inside the tolerance
    ([-2.0, 1.0, 3.0], [6e-13, 0.3, -0.4], {"not hard"}),  # near miss, outside: a pole at mu_lo
    ([-1.0, 2.0], [1e-6, 1.0], {"not hard"}),
    ([0.5, 1.0], [1e150, 1.0], {"not hard", "the model value at a step"}),  # at sigma = 1e-300 (below)
    ([-1e100, 1.0], [1.0, 1.0], {"could not bracket"}),  # mu_lo + sqrt(sigma ||w||) rounds to mu_lo
    ([1.0, 2.0], [math.nan, 1.0], {"could not bracket"}),
    ([1.0, 2.0], [math.inf, 1.0], {"could not bracket"}),
], ids=["zeros-in-w", "underflowed-square", "zero-gradient", "zero-gradient-indefinite", "hard-case",
        "hard-case-double", "near-miss-inside", "near-miss-outside", "pole-at-mu-lo",
        "step-cube-overflows", "bracket-below-one-ulp", "nan-in-w", "inf-in-w"])
def test_solve_is_the_oracle_bit_for_bit_on_edge_models(lam, w, reached):
    # each model reaches the paths named, somewhere on 1e-12 <= sigma <= 1e8; the
    # step whose cube overflows needs sigma = 1e-300
    sigmas = _SIGMAS + [1e-300] if "the model value at a step" in reached else _SIGMAS
    outcomes = _assert_solves_as_the_oracle(_diagonal_model(lam, w), sigmas)
    paths = {("hard case" if out["hard_case"] else "not hard") if isinstance(out, dict) else out[1]
             for out in outcomes}
    assert {next((r for r in reached if path.startswith(r)), path) for path in paths} == reached


def test_solve_is_the_oracle_bit_for_bit_at_the_evaluation_cap(monkeypatch):
    rng = np.random.default_rng(95)
    m = build_model(0.0, rng.standard_normal(6), np.diag(rng.standard_normal(6)))
    for cap in (1, 2, 3, 5):
        monkeypatch.setattr(subproblem, "_MAX_INNER", cap)
        outcomes = _assert_solves_as_the_oracle(m)
        assert ("InnerSolverError", f"secular root-finding did not converge in {cap} evaluations") in outcomes
