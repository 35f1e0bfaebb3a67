import ctypes
from dataclasses import replace

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
from rsarc.subproblem import whiten
from helpers import failing_lapack, fd_gradient, fd_jacobian, model_value_oracle, rel_err


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
    """The Euclidean model of a sketched model's data, its H (which the model
    does not keep) and L^{-1} (None for the identity Gram)."""
    if gram is None:
        return build_model(f0, g, h, sigma), h, None
    g_t, h_t, linv = whiten(gram, g, h)
    return build_model(f0, g_t, h_t, sigma), h_t, linv


def random_model(rng, l, **kwargs):
    """A random Euclidean model and its H."""
    return whitened(*random_data(rng, l, **kwargs))[:2]


def test_value_and_gradient_at_origin():
    h = np.eye(2)
    m = build_model(3.5, np.array([1.0, -2.0]), h, 1.0)
    z = np.zeros(2)
    assert model_value(m, h, z) == 3.5
    assert np.array_equal(model_gradient(m, h, z), m.g_hat)
    assert np.array_equal(model_hessian(m, h, z), h)


def test_scalar_example():
    # f0 - 1 + 1/2 + 1/3 = f0 - 1/6 at s = -1; gradient 1 - 1 - 1 = -1
    h = np.array([[1.0]])
    m = build_model(5.0, np.array([1.0]), h, 1.0)
    s = np.array([-1.0])
    assert model_value(m, h, s) == pytest.approx(5.0 - 1.0 / 6.0, abs=1e-15)
    assert model_gradient(m, h, s) == pytest.approx([-1.0], abs=1e-15)


def test_model_gradient_matches_finite_differences():
    rng = np.random.default_rng(50)
    for _ in range(10):
        m, h = random_model(rng, int(rng.integers(1, 5)))
        s = rng.standard_normal(m.dim)
        fd = fd_gradient(lambda v: model_value(m, h, v), s)
        assert rel_err(fd, model_gradient(m, h, s)) < 1e-6


def test_model_hessian_matches_finite_differences():
    rng = np.random.default_rng(51)
    for _ in range(5):
        m, h = random_model(rng, 3)
        s = rng.standard_normal(3) + 0.5  # keep away from the nonsmooth origin
        fd = fd_jacobian(lambda v: model_gradient(m, h, v), s)
        assert rel_err(fd, model_hessian(m, h, s)) < 1e-5


def test_solve_one_dimensional_closed_form():
    h = np.array([[1.0]])
    m = build_model(0.0, np.array([1.0]), h, 1.0)
    sol = solve(m)
    assert sol.s_hat[0] == pytest.approx((1.0 - np.sqrt(5.0)) / 2.0, abs=1e-10)
    assert all(check_termination(m, h, sol.s_hat, 0.1, 0.1))


def test_solve_zero_gradient_psd():
    h = np.diag([1.0, 2.0, 3.0])
    m = build_model(2.0, np.zeros(3), h, 1.0)
    sol = solve(m)
    assert np.array_equal(sol.s_hat, np.zeros(3))
    assert sol.model_value == 2.0
    assert all(check_termination(m, h, sol.s_hat, 0.1, 0.1))


def test_solve_matches_grid_oracle_2d():
    rng = np.random.default_rng(52)
    xs = np.linspace(-10.0, 10.0, 401)
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([xg.ravel(), yg.ravel()], axis=1)
    for _ in range(20):
        data = random_data(rng, 2)
        m = whitened(*data)[0]
        oracle = float(np.min(model_value_oracle(*data, pts)))
        sol = solve(m)
        assert sol.model_value <= oracle + 1e-6


def test_solve_matches_descent_oracle():
    rng = np.random.default_rng(53)
    for l in (1, 2, 3, 5):
        for _ in range(5):
            data = random_data(rng, l)
            m, h, _ = whitened(*data)
            best = np.inf
            for _ in range(10):
                res = minimize(lambda s: model_value_oracle(*data, s), rng.standard_normal(l) * 2.0,
                               method="BFGS", options={"gtol": 1e-12, "maxiter": 500})
                best = min(best, res.fun)
            sol = solve(m)
            assert sol.model_value <= best + 1e-8
            assert all(check_termination(m, h, sol.s_hat, 0.1, 0.1))


def test_newton_limit_small_sigma():
    rng = np.random.default_rng(54)
    a = rng.standard_normal((4, 4))
    h = a @ a.T + np.eye(4)  # safely positive definite
    g = rng.standard_normal(4)
    m = build_model(0.0, g, h, 1e-8)
    sol = solve(m)
    newton = -np.linalg.solve(h, g)
    assert rel_err(sol.s_hat, newton) < 1e-4


def test_model_decrease_identity():
    # f0 - q(s) >= sigma/3 ||S^T s||^3 whenever m(s) <= m(0)
    rng = np.random.default_rng(55)
    for _ in range(20):
        m, _ = random_model(rng, int(rng.integers(1, 6)))
        sol = solve(m)
        assert sol.model_value <= m.f0
        lhs = sol.predicted_decrease
        rhs = m.sigma / 3.0 * sol.cubic_norm**3
        assert lhs >= rhs - 1e-12 * max(1.0, abs(rhs))


def test_secular_residual_bound():
    rng = np.random.default_rng(56)
    for _ in range(20):
        m, h = random_model(rng, int(rng.integers(1, 6)))
        sol = solve(m)
        grad_norm = np.linalg.norm(model_gradient(m, h, sol.s_hat))
        assert grad_norm <= 1e-10 * (1.0 + np.linalg.norm(m.g_hat))


def test_the_evaluation_cap_ends_the_secular_solve(monkeypatch):
    # _MAX_INNER bounds the evaluations, bracketing included: a cap at the
    # count a solve needs still solves it, one fewer raises
    rng = np.random.default_rng(57)
    m, _ = random_model(rng, 6)
    needed = solve(m).inner_iterations
    assert needed > 2
    monkeypatch.setattr(subproblem, "_MAX_INNER", needed)
    assert solve(m).inner_iterations == needed
    for cap in (needed - 1, 1):
        monkeypatch.setattr(subproblem, "_MAX_INNER", cap)
        with pytest.raises(InnerSolverError, match=f"in {cap} evaluations"):
            solve(m)


@pytest.mark.parametrize("gram", ["random", "identity"])
def test_predicted_decrease_matches_the_quadratic_oracle(gram):
    # solve evaluates f0 - q(u) in its eigenbasis; compare with the sketched
    # model's q(s) at s = L^{-T} u
    rng = np.random.default_rng(60)
    for l in (1, 2, 4, 7, 12):
        for _ in range(5):
            _, g, h, _, gm = data = random_data(rng, l, gram=gram)
            m, h_t, linv = whitened(*data)
            sol = solve(m)
            s = sol.s_hat if linv is None else linv.T @ sol.s_hat
            gs, shs = float(g @ s), float(s @ h @ s)
            scale = abs(gs) + abs(shs) + 1e-300
            assert abs(sol.predicted_decrease + (gs + 0.5 * shs)) <= 1e-10 * scale
            grad_norm = np.linalg.norm(model_gradient(m, h_t, sol.s_hat))
            assert grad_norm <= 1e-9 * (1.0 + np.linalg.norm(m.g_hat))


def test_cubic_norm_consistent():
    rng = np.random.default_rng(57)
    m, _ = random_model(rng, 4)
    sol = solve(m)
    assert sol.cubic_norm == pytest.approx(np.linalg.norm(sol.s_hat), rel=1e-10, abs=1e-12)


def test_hard_case_eigenvector_correction():
    # gradient orthogonal to the minimal eigenspace, sigma small enough
    # that the interior solution is too short
    lam = np.array([-2.0, 1.0, 3.0])
    g = np.array([0.0, 0.3, -0.4])
    sigma = 0.1
    m = build_model(0.0, g, np.diag(lam), sigma)
    sol = solve(m)
    assert sol.hard_case and sol.mu == 2.0
    # at the hard-case solution sigma*||s|| equals -lambda_min exactly
    assert sigma * sol.cubic_norm == pytest.approx(2.0, rel=1e-12)
    assert np.linalg.norm(model_gradient(m, np.diag(lam), sol.s_hat)) < 1e-12
    rng = np.random.default_rng(58)
    best = np.inf
    for _ in range(20):
        res = minimize(lambda s: model_value_oracle(0.0, g, np.diag(lam), sigma, None, s),
                       rng.standard_normal(3) * 10.0,
                       method="BFGS", options={"gtol": 1e-12, "maxiter": 500})
        best = min(best, res.fun)
    assert sol.model_value <= best + 1e-8


def test_hard_case_zero_gradient_negative_curvature():
    m = build_model(1.0, np.zeros(2), np.diag([-3.0, 1.0]), 1.5)
    sol = solve(m)
    assert sol.cubic_norm == pytest.approx(2.0, rel=1e-12)  # ||s|| = -lam1/sigma
    assert sol.model_value < 1.0


def test_check_termination_cases():
    rng = np.random.default_rng(59)
    m, h = random_model(rng, 3)
    sol = solve(m)
    assert check_termination(m, h, sol.s_hat, 0.1, 0.1) == (True, True, True)

    flags = check_termination(m, h, np.zeros(3), 0.1, 0.1)
    assert flags[0] is True and flags[1] is False  # zero step, nonzero gradient

    m0 = build_model(0.0, np.zeros(2), np.eye(2), 1.0)
    assert check_termination(m0, np.eye(2), np.zeros(2), 0.1, 0.1) == (True, True, True)


def test_singular_gram_rejected():
    with pytest.raises(SingularGramError):
        whiten(np.ones((2, 2)), np.ones(2), np.eye(2))


def test_nonpositive_sigma_rejected():
    for sigma in (0.0, -1.0, float("nan")):
        with pytest.raises(InvalidInputError, match="sigma"):
            build_model(0.0, np.ones(2), np.eye(2), sigma)


def test_gram_shape_mismatch():
    for call in (
        lambda: whiten(np.eye(2), np.ones(2), np.eye(3)),
        lambda: whiten(np.eye(3), np.ones(2), np.eye(2)),
        lambda: build_model(0.0, np.ones(2), np.eye(3), 1.0),
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
            m, _, linv = whitened(*data)
            sol = solve(m)
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
            m = build_model(0.0, rng.standard_normal(l), h, 1.0)
            got = spectrum_rank(m.eigenvalues, 1e-10)
            assert got == numerical_rank(h, 1e-10) == r


def _assert_same_solution(a, b):
    for name, value in vars(a).items():
        other = getattr(b, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, other), name
        else:
            assert value == other, name


def _rebuilt(m, h, sigma):
    """The model ``build_model`` gives for m's data, built from H, with another sigma."""
    return build_model(m.f0, m.g_hat, h, sigma)


@pytest.mark.parametrize("gram", ["random", "identity"])
def test_a_solve_from_the_last_spectrum_equals_a_fresh_solve(gram):
    # a rejected step changes sigma only: the model's eigenpairs carry over
    # exactly, and its solve equals that of a model built afresh
    rng = np.random.default_rng(64)
    for l in (1, 2, 5, 12):
        for _ in range(5):
            m, h = random_model(rng, l, gram=gram)
            solve(m)  # the solver solves a model before it reuses it
            for factor in (2.0, 4.0, 0.5):
                sigma = factor * m.sigma
                _assert_same_solution(solve(replace(m, sigma=sigma)), solve(_rebuilt(m, h, sigma)))


def test_a_solve_from_the_last_spectrum_keeps_the_hard_case():
    h = np.diag([-2.0, 1.0, 3.0])
    m = build_model(0.0, np.array([0.0, 0.3, -0.4]), h, 0.1)
    prev = solve(m)
    for sigma in (0.2, 0.4, 50.0):
        fresh = solve(_rebuilt(m, h, sigma))
        _assert_same_solution(solve(replace(m, sigma=sigma)), fresh)
    assert prev.hard_case and solve(replace(m, sigma=0.2)).hard_case
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
        m = build_model(0.0, *whiten(s.gram(), s.matrix @ p.gradient(x), h)[:2], 1.0)
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
    factored = build_model(0.0, g, consumed, 0.7)
    monkeypatch.setattr(subproblem, "_FACTORED_MIN", n + 1)
    explicit = build_model(0.0, g, h, 0.7)
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
    a, b = solve(factored), solve(explicit)
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
    model = build_model(0.0, g, h.copy(), 0.7)
    assert model.reflectors is not None
    assert check_termination(model, h, solve(model).s_hat, 0.1, 0.1) == (True, True, True)


@needs_lapack
def test_the_factored_eigenbasis_keeps_the_hard_case(monkeypatch):
    n = subproblem._FACTORED_MIN
    rng = np.random.default_rng(67)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = np.concatenate([[-2.0], rng.uniform(1.0, 3.0, n - 1)])
    h = (q * lam) @ q.T
    h = 0.5 * (h + h.T)
    g = q[:, 1:] @ rng.uniform(-1e-3, 1e-3, n - 1)  # no component along the minimal eigenvector
    factored = solve(build_model(0.0, g, h.copy(), 0.5))
    monkeypatch.setattr(subproblem, "_FACTORED_MIN", n + 1)
    explicit = solve(build_model(0.0, g, h, 0.5))
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
        solve(build_model(0.0, g, h, 1.0))
    res = run(get_problem("ARWHEAD:N=200"), SolverConfig(mode="arc"))
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
        model = build_model(0.0, g, h, 1.0)
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
    a, b = build_model(0.0, g, noisy, 1.0), build_model(0.0, g, h.copy(), 1.0)
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
    model = build_model(0.0, g, h.copy(), 0.5)
    assert model.eigenvectors.shape[0] < n and np.count_nonzero(model.eigenvalues == 0.0) > 0
    factored = solve(model)
    monkeypatch.setattr(subproblem, "_FACTORED_MIN", n + 1)
    explicit = solve(build_model(0.0, g, h, 0.5))
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
