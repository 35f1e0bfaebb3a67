import numpy as np
import pytest
from scipy.optimize import minimize

from rsarc import (
    SingularGramError,
    build_model,
    check_termination,
    model_gradient,
    model_hessian,
    model_value,
    solve,
)
from rsarc.subproblem import cubic_norm, quadratic_decrease
from helpers import fd_gradient, fd_jacobian, rel_err


def random_model(rng, l, f0=0.0, sigma=None, gram="random"):
    g = rng.standard_normal(l)
    h = rng.standard_normal((l, l))
    h = 0.5 * (h + h.T)
    if gram == "identity":
        gm = np.eye(l)
    else:
        a = rng.standard_normal((l, l + 3)) / np.sqrt(l)
        gm = a @ a.T
        gm = 0.5 * (gm + gm.T)
    sigma = sigma if sigma is not None else float(rng.uniform(0.5, 2.0))
    return build_model(f0, g, h, sigma, gm)


def raw_value(model, s):
    # independent evaluation of the model formula
    s = np.asarray(s, dtype=float)
    quad = float(model.g_hat @ s + 0.5 * s @ model.h_hat @ s)
    return model.f0 + quad + model.sigma / 3.0 * float(s @ model.gram @ s) ** 1.5


def test_value_and_gradient_at_origin():
    m = build_model(3.5, np.array([1.0, -2.0]), np.eye(2), 1.0, np.eye(2))
    z = np.zeros(2)
    assert model_value(m, z) == 3.5
    assert np.array_equal(model_gradient(m, z), m.g_hat)
    assert np.array_equal(model_hessian(m, z), m.h_hat)


def test_scalar_example():
    # f0 - 1 + 1/2 + 1/3 = f0 - 1/6 at s = -1; gradient 1 - 1 - 1 = -1
    m = build_model(5.0, np.array([1.0]), np.array([[1.0]]), 1.0, np.array([[1.0]]))
    s = np.array([-1.0])
    assert model_value(m, s) == pytest.approx(5.0 - 1.0 / 6.0, abs=1e-15)
    assert model_gradient(m, s) == pytest.approx([-1.0], abs=1e-15)


def test_model_gradient_matches_finite_differences():
    rng = np.random.default_rng(50)
    for _ in range(10):
        m = random_model(rng, int(rng.integers(1, 5)))
        s = rng.standard_normal(m.dim)
        fd = fd_gradient(lambda v: model_value(m, v), s)
        assert rel_err(fd, model_gradient(m, s)) < 1e-6


def test_model_hessian_matches_finite_differences():
    rng = np.random.default_rng(51)
    for _ in range(5):
        m = random_model(rng, 3)
        s = rng.standard_normal(3) + 0.5  # keep away from the nonsmooth origin
        fd = fd_jacobian(lambda v: model_gradient(m, v), s)
        assert rel_err(fd, model_hessian(m, s)) < 1e-5


def test_solve_one_dimensional_closed_form():
    m = build_model(0.0, np.array([1.0]), np.array([[1.0]]), 1.0, np.array([[1.0]]))
    sol = solve(m)
    assert sol.s_hat[0] == pytest.approx((1.0 - np.sqrt(5.0)) / 2.0, abs=1e-10)
    assert all(check_termination(m, sol.s_hat, 0.1, 0.1))


def test_solve_zero_gradient_psd():
    m = build_model(2.0, np.zeros(3), np.diag([1.0, 2.0, 3.0]), 1.0, np.eye(3))
    sol = solve(m)
    assert np.array_equal(sol.s_hat, np.zeros(3))
    assert sol.model_value == 2.0
    assert all(check_termination(m, sol.s_hat, 0.1, 0.1))


def test_solve_matches_grid_oracle_2d():
    rng = np.random.default_rng(52)
    xs = np.linspace(-10.0, 10.0, 401)
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([xg.ravel(), yg.ravel()], axis=1)
    for _ in range(20):
        m = random_model(rng, 2)
        quad = pts @ m.g_hat + 0.5 * np.einsum("ni,ij,nj->n", pts, m.h_hat, pts)
        cube = m.sigma / 3.0 * np.einsum("ni,ij,nj->n", pts, m.gram, pts) ** 1.5
        oracle = float(np.min(quad + cube)) + m.f0
        sol = solve(m)
        assert sol.model_value <= oracle + 1e-6


def test_solve_matches_descent_oracle():
    rng = np.random.default_rng(53)
    for l in (1, 2, 3, 5):
        for _ in range(5):
            m = random_model(rng, l)
            best = np.inf
            for _ in range(10):
                res = minimize(lambda s: raw_value(m, s), rng.standard_normal(l) * 2.0,
                               method="BFGS", options={"gtol": 1e-12, "maxiter": 500})
                best = min(best, res.fun)
            sol = solve(m)
            assert sol.model_value <= best + 1e-8
            assert all(check_termination(m, sol.s_hat, 0.1, 0.1))


def test_newton_limit_small_sigma():
    rng = np.random.default_rng(54)
    a = rng.standard_normal((4, 4))
    h = a @ a.T + np.eye(4)  # safely positive definite
    g = rng.standard_normal(4)
    m = build_model(0.0, g, h, 1e-8, np.eye(4))
    sol = solve(m)
    newton = -np.linalg.solve(h, g)
    assert rel_err(sol.s_hat, newton) < 1e-4


def test_model_decrease_identity():
    # f0 - q(s) >= sigma/3 ||S^T s||^3 whenever m(s) <= m(0)
    rng = np.random.default_rng(55)
    for _ in range(20):
        m = random_model(rng, int(rng.integers(1, 6)))
        sol = solve(m)
        assert sol.model_value <= m.f0
        lhs = quadratic_decrease(m, sol.s_hat)
        rhs = m.sigma / 3.0 * sol.cubic_norm**3
        assert lhs >= rhs - 1e-12 * max(1.0, abs(rhs))


def test_secular_residual_bound():
    rng = np.random.default_rng(56)
    for _ in range(20):
        m = random_model(rng, int(rng.integers(1, 6)))
        sol = solve(m, inner_tol=1e-10)
        assert sol.model_gradient_norm <= 1e-10 * (1.0 + np.linalg.norm(m.g_hat))


def test_cubic_norm_consistent():
    rng = np.random.default_rng(57)
    m = random_model(rng, 4)
    sol = solve(m)
    assert sol.cubic_norm == pytest.approx(cubic_norm(m, sol.s_hat), rel=1e-10, abs=1e-12)


def test_hard_case_eigenvector_correction():
    # gradient orthogonal to the minimal eigenspace, sigma small enough
    # that the interior solution is too short
    lam = np.array([-2.0, 1.0, 3.0])
    g = np.array([0.0, 0.3, -0.4])
    sigma = 0.1
    m = build_model(0.0, g, np.diag(lam), sigma, np.eye(3))
    sol = solve(m)
    # at the hard-case solution sigma*||s|| equals -lambda_min exactly
    assert sigma * sol.cubic_norm == pytest.approx(2.0, rel=1e-12)
    assert sol.model_gradient_norm < 1e-12
    rng = np.random.default_rng(58)
    best = np.inf
    for _ in range(20):
        res = minimize(lambda s: raw_value(m, s), rng.standard_normal(3) * 10.0,
                       method="BFGS", options={"gtol": 1e-12, "maxiter": 500})
        best = min(best, res.fun)
    assert sol.model_value <= best + 1e-8


def test_hard_case_zero_gradient_negative_curvature():
    m = build_model(1.0, np.zeros(2), np.diag([-3.0, 1.0]), 1.5, np.eye(2))
    sol = solve(m)
    assert sol.cubic_norm == pytest.approx(2.0, rel=1e-12)  # ||s|| = -lam1/sigma
    assert sol.model_value < 1.0


def test_check_termination_cases():
    rng = np.random.default_rng(59)
    m = random_model(rng, 3)
    sol = solve(m)
    assert check_termination(m, sol.s_hat, 0.1, 0.1) == (True, True, True)

    flags = check_termination(m, np.zeros(3), 0.1, 0.1)
    assert flags[0] is True and flags[1] is False  # zero step, nonzero gradient

    m0 = build_model(0.0, np.zeros(2), np.eye(2), 1.0, np.eye(2))
    assert check_termination(m0, np.zeros(2), 0.1, 0.1) == (True, True, True)


def test_singular_gram_rejected():
    with pytest.raises(SingularGramError):
        build_model(0.0, np.ones(2), np.eye(2), 1.0, np.ones((2, 2)))


def test_nonpositive_sigma_rejected():
    with pytest.raises(ValueError):
        build_model(0.0, np.ones(2), np.eye(2), 0.0, np.eye(2))


def test_gram_shape_mismatch():
    from rsarc import InvalidDimensionError

    with pytest.raises(InvalidDimensionError):
        build_model(0.0, np.ones(2), np.eye(3), 1.0, np.eye(2))
