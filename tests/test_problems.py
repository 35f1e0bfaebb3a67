import tracemalloc

import numpy as np
import pytest

from rsarc import (
    BUILTIN_NAMES,
    InvalidDimensionError,
    InvalidInputError,
    UnsupportedProblemError,
    augment,
    builtin_problem,
    get_problem,
    make_orthogonal_embedding,
    numerical_rank,
    quadrank_minimizer,
)
from rsarc.problems import cholesky_qr2
from helpers import fd_gradient, fd_jacobian, householder_q, rel_err

# catalogue starting values for the anchored problems at N=100
ANCHORS = {
    "ARWHEAD": 2.9700e2,
    "COSINE": 8.6881e1,
    "ENGVAL1": 5.8410e3,
    "POWER": 2.5503e7,
    "NONDQUAR": 1.0600e2,
}

ALL_NAMES = ("ARWHEAD", "COSINE", "ENGVAL1", "POWER", "NONDQUAR", "ROSENCHAIN", "QUADRANK")


@pytest.mark.parametrize("name,expected", sorted(ANCHORS.items()))
def test_start_values_match_catalogue(name, expected):
    p = builtin_problem(name, 100)
    assert p.value(p.x0) == pytest.approx(expected, rel=5e-4)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_gradient_matches_finite_differences(name):
    p = builtin_problem(name, 20)
    rng = np.random.default_rng(3)
    points = [p.x0] + [p.x0 + 0.5 * rng.standard_normal(p.dim) for _ in range(10)]
    for x in points:
        assert rel_err(fd_gradient(p.value, x), p.gradient(x)) < 1e-6


@pytest.mark.parametrize("name", ALL_NAMES)
def test_hessian_matches_finite_differences(name):
    p = builtin_problem(name, 15)
    rng = np.random.default_rng(4)
    for x in (p.x0, p.x0 + 0.3 * rng.standard_normal(p.dim)):
        assert rel_err(fd_jacobian(p.gradient, x), p.hessian(x)) < 1e-5


@pytest.mark.parametrize("name", ALL_NAMES)
def test_hessian_symmetric(name):
    p = builtin_problem(name, 12)
    rng = np.random.default_rng(5)
    x = p.x0 + rng.standard_normal(p.dim)
    h = p.hessian(x)
    assert np.linalg.norm(h - h.T) <= 1e-10 * max(np.linalg.norm(h), 1.0)


def test_quadrank_closed_form():
    p = builtin_problem("QUADRANK", 10, rank=4)
    assert p.known_rank == 4
    assert p.f_star == pytest.approx(-0.5 * (1 + 1 / 2 + 1 / 3 + 1 / 4), abs=1e-15)
    xstar = quadrank_minimizer(10, 4)
    assert np.linalg.norm(p.gradient(xstar)) == pytest.approx(0.0, abs=1e-15)
    assert p.value(xstar) == pytest.approx(p.f_star, abs=1e-15)
    assert numerical_rank(p.hessian(p.x0)) == 4


def test_engval1_reported_minimum_is_attained():
    # the stored optimum must be a stationary value, not a lower bound
    from scipy.optimize import minimize

    p = builtin_problem("ENGVAL1", 50)
    res = minimize(p.value, p.x0, jac=p.gradient, hess=p.hessian, method="trust-exact",
                   options={"gtol": 1e-12})
    assert res.fun == pytest.approx(p.f_star, rel=1e-12)


def test_every_builtin_name_builds():
    assert sorted(BUILTIN_NAMES) == sorted(ALL_NAMES)
    for name in BUILTIN_NAMES:
        assert builtin_problem(name, 6).dim == 6


def test_builtin_errors():
    with pytest.raises(UnsupportedProblemError):
        builtin_problem("NOPE", 10)
    with pytest.raises(InvalidDimensionError):
        builtin_problem("ARWHEAD", 1)
    with pytest.raises(InvalidDimensionError):
        builtin_problem("QUADRANK", 5, rank=6)
    with pytest.raises(UnsupportedProblemError):
        builtin_problem("POWER", 5, rank=2)


def _assert_householder_q(q, a):
    # orthonormal to 1e-14, and the Householder Q of the same draw to 1e-13
    assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-14
    assert np.abs(q - householder_q(a)).max() <= 1e-13


@pytest.mark.parametrize("d,r", [(3, 3), (7, 7), (100, 100)])
def test_orthogonal_embedding_square(d, r):
    q = make_orthogonal_embedding(d, r, seed=0)
    _assert_householder_q(q, np.random.default_rng(0).standard_normal((d, r)))
    assert np.abs(q @ q.T - np.eye(d)).max() <= 1e-14


@pytest.mark.parametrize("d,r", [(5, 2), (500, 50), (2000, 100)])
def test_orthogonal_embedding_rectangular(d, r):
    q = make_orthogonal_embedding(d, r, seed=42)
    assert q.shape == (d, r)
    _assert_householder_q(q, np.random.default_rng(42).standard_normal((d, r)))


@pytest.fixture
def householder_calls(monkeypatch):
    """Count the calls cholesky_qr2 makes to its Householder fallback."""
    calls = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


def test_cholesky_qr2_is_blind_to_column_scaling(householder_calls):
    # scaling a column by 1e-10 makes cond(A) >= 1e10 but leaves the
    # positive-diagonal Q unchanged; Cholesky QR is invariant to it too, so
    # no fallback is needed
    a = np.random.default_rng(0).standard_normal((2000, 100))
    scaled = a.copy()
    scaled[:, 5] *= 1e-10
    assert np.linalg.cond(scaled) >= 1e10
    q = cholesky_qr2(scaled)
    assert not householder_calls
    assert np.abs(q.T @ q - np.eye(100)).max() <= 1e-14
    assert np.abs(q - householder_q(a)).max() <= 1e-13


@pytest.mark.parametrize("eps", [1e-8, 1e-10])
def test_cholesky_qr2_falls_back_to_householder_when_ill_conditioned(householder_calls, eps):
    # column 7 nearly repeats column 6: cond(A) >= 1e8 > u^(-1/2), so the
    # first Cholesky breaks down or leaves Q1^T Q1 far from I
    a = np.random.default_rng(0).standard_normal((2000, 100))
    a[:, 7] = a[:, 6] + eps * a[:, 7]
    assert np.linalg.cond(a) >= 1e8
    q = cholesky_qr2(a.copy())
    assert householder_calls == [a.shape]
    assert np.abs(q.T @ q - np.eye(100)).max() <= 1e-14
    assert np.abs(q - householder_q(a)).max() <= 1e-13


def test_orthogonal_embedding_deterministic():
    a = make_orthogonal_embedding(100, 10, seed=123)
    b = make_orthogonal_embedding(100, 10, seed=123)
    assert np.array_equal(a, b)


def test_orthogonal_embedding_errors():
    with pytest.raises(InvalidDimensionError):
        make_orthogonal_embedding(3, 4, seed=0)
    with pytest.raises(InvalidDimensionError):
        make_orthogonal_embedding(3, 0, seed=0)


def test_augment_start_point_and_metadata():
    base = builtin_problem("ARWHEAD", 30)
    g = augment(base, 200, seed=7)
    assert g.dim == 200
    assert g.known_rank == 30
    assert g.f_star == base.f_star
    assert g.value(g.x0) == pytest.approx(base.value(base.x0), rel=1e-10)


def test_augment_error():
    with pytest.raises(InvalidDimensionError):
        augment(builtin_problem("ARWHEAD", 30), 20, seed=0)


def test_augment_rejects_a_negative_seed():
    with pytest.raises(InvalidInputError, match="seed"):
        augment(builtin_problem("ARWHEAD", 10), 40, -1)


def test_augmented_derivatives_match_finite_differences():
    g = augment(builtin_problem("COSINE", 6), 15, seed=11)
    rng = np.random.default_rng(12)
    for x in (g.x0, g.x0 + 0.4 * rng.standard_normal(15)):
        assert rel_err(fd_gradient(g.value, x), g.gradient(x)) < 1e-6
        assert rel_err(fd_jacobian(g.gradient, x), g.hessian(x)) < 1e-5


def test_augmented_constant_along_null_space():
    base = builtin_problem("ENGVAL1", 8)
    g = augment(base, 40, seed=3)
    q = make_orthogonal_embedding(40, 8, seed=3)
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = rng.standard_normal(40)
        w = rng.standard_normal(40)
        v = w - q @ (q.T @ w)  # component in the constant subspace
        fx, fxv = g.value(x), g.value(x + v)
        assert abs(fxv - fx) <= 1e-12 * max(1.0, abs(fx))


def test_augmented_hessian_rank_bounded():
    g = augment(builtin_problem("ROSENCHAIN", 8), 60, seed=21)
    rng = np.random.default_rng(22)
    points = [g.x0] + [g.x0 + rng.standard_normal(60) for _ in range(5)]
    for x in points:
        assert numerical_rank(g.hessian(x)) <= 8


def test_square_augmentation_preserves_spectrum():
    base = builtin_problem("ENGVAL1", 7)
    g = augment(base, 7, seed=5)
    q = make_orthogonal_embedding(7, 7, seed=5)
    x = g.x0 + 0.1
    ev_g = np.linalg.eigvalsh(g.hessian(x))
    ev_f = np.linalg.eigvalsh(base.hessian(q.T @ x))
    assert np.allclose(ev_g, ev_f, rtol=1e-10, atol=1e-10)


def test_selector_parsing():
    p = get_problem("l-ARWHEAD:d=1000:seed=1")
    assert p.dim == 1000 and p.known_rank == 100
    assert p.name == "l-ARWHEAD:N=100:d=1000:seed=1"
    again = get_problem(p.name)
    assert np.array_equal(again.x0, p.x0)

    q = get_problem("QUADRANK:d=10:rank=10")
    assert q.dim == 10 and q.known_rank == 10

    small = get_problem("l-COSINE:N=20:d=50:seed=3")
    assert small.dim == 50 and small.known_rank == 20


@pytest.mark.parametrize(
    "selector",
    [
        "NOPE", "NOPE:N=5", "ARWHEAD", "ARWHEAD:N=x", "l-ARWHEAD", "ARWHEAD:bogus=3", "ARWHEAD:N",
        "l-ARWHEAD:N=10:d=40:seed=-1",
    ],
)
def test_selector_errors(selector):
    with pytest.raises(UnsupportedProblemError):
        get_problem(selector)


@pytest.mark.parametrize("name", ("ARWHEAD", "COSINE", "ENGVAL1", "POWER"))
@pytest.mark.parametrize("l,d", [(1, 20), (7, 20), (20, 20), (31, 300)])
def test_lifted_sketched_hessian_matches_dense_projection(name, l, d):
    g = augment(builtin_problem(name, 10), d, seed=l)
    rng = np.random.default_rng(d + l)
    s = rng.standard_normal((l, d))
    for x in (g.x0, g.x0 + 0.3 * rng.standard_normal(d)):
        assert rel_err(g.sketched_hessian(x, s), s @ g.hessian(x) @ s.T) < 1e-12


def test_a_lifted_instance_holds_its_embedding_once():
    # Q (d x N) is the only large array a lifted instance keeps; it held a
    # transposed copy beside it before, twice the bytes.  Building it needs
    # the Gaussian draw and one more d x N array at a time, where Householder
    # QR needed three
    d, n = 2000, 100
    tracemalloc.start()
    try:
        p = get_problem(f"l-ARWHEAD:N={n}:d={d}")
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.dim == d
    assert retained <= 1.25 * 8 * d * n, f"retained {retained / (8 * d * n):.2f} x 8dN bytes"
    assert peak <= 2.5 * 8 * d * n, f"peak {peak / (8 * d * n):.2f} x 8dN bytes"
