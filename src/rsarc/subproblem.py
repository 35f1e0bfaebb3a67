"""Sketched cubic-regularization subproblem: model calculus and exact solve.

The model in the sketched variables s (dimension l) is

    m(s) = f0 + g.s + 0.5 s.H s + (sigma/3) ||S^T s||^3,

where the cubic term couples s through the Gram matrix G = S S^T via
||S^T s||^2 = s.G s.  The change of variables u = L^T s with G = L L^T
reduces this to the classical cubic-regularized model with a Euclidean
norm, which is minimized globally by eigendecomposition plus scalar
root-finding on the secular equation sigma * ||u(mu)|| = mu with
u(mu) = -(H_tilde + mu I)^{-1} g_tilde and mu >= max(0, -lambda_min),
including explicit hard-case handling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import InnerSolverError, InvalidDimensionError, SingularGramError

#: multiplicity tolerance when grouping eigenvalues with the smallest one
_EIG_GROUP_TOL = 1e-12
#: hard case: component of the transformed gradient along the minimal
#: eigenspace below this fraction of its norm
_HARD_CASE_TOL = 1e-12
#: absolute roundoff slack in the second/third termination conditions
_TERMINATION_SLACK = 1e-12


@dataclass
class SketchedCubicModel:
    """Data of the sketched cubic model (all in the l-dimensional space)."""

    f0: float
    g_hat: np.ndarray  # (l,)
    h_hat: np.ndarray  # (l, l), symmetric
    sigma: float
    gram: np.ndarray  # (l, l), symmetric positive definite
    chol: np.ndarray  # lower-triangular L with gram = L L^T
    identity_gram: bool  # gram = chol = I, so no whitening is needed

    @property
    def dim(self) -> int:
        return self.g_hat.shape[0]


@dataclass
class SubproblemSolution:
    s_hat: np.ndarray
    model_value: float
    model_gradient_norm: float
    cubic_norm: float  # ||S^T s_hat|| = sqrt(s.G s)
    inner_iterations: int
    eigenvalues: np.ndarray  # ascending spectrum of L^{-1} H L^{-T}


def build_model(
    f0: float,
    g_hat: np.ndarray,
    h_hat: np.ndarray,
    sigma: float,
    gram: np.ndarray,
    identity_gram: bool = False,
) -> SketchedCubicModel:
    """Assemble a model and factorize its Gram matrix.

    ``identity_gram`` declares that ``gram`` is the identity, as it is for
    an identity sketch; the factorization and the whitening in ``solve``
    are then skipped.  The flag is the caller's promise and is not checked.

    Raises SingularGramError when G = S S^T is numerically singular, which
    the outer loop treats as a signal to redraw the sketch.
    """
    l = g_hat.shape[0]
    if h_hat.shape != (l, l) or gram.shape != (l, l):
        raise InvalidDimensionError(
            f"inconsistent model shapes: g {g_hat.shape}, H {h_hat.shape}, G {gram.shape}"
        )
    if sigma <= 0.0:
        raise ValueError(f"need sigma > 0, got {sigma}")
    if identity_gram:
        chol = gram
    else:
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise SingularGramError("gram matrix S S^T is not positive definite") from exc
        if not np.all(np.isfinite(chol)):
            raise SingularGramError("gram factorization produced non-finite entries")
    return SketchedCubicModel(float(f0), g_hat, h_hat, float(sigma), gram, chol, identity_gram)


def cubic_norm(model: SketchedCubicModel, s_hat: np.ndarray) -> float:
    """||S^T s|| = sqrt(s.G s)."""
    return float(np.sqrt(max(s_hat @ model.gram @ s_hat, 0.0)))


def model_value(model: SketchedCubicModel, s_hat: np.ndarray) -> float:
    quad = model.g_hat @ s_hat + 0.5 * (s_hat @ model.h_hat @ s_hat)
    return model.f0 + float(quad) + (model.sigma / 3.0) * cubic_norm(model, s_hat) ** 3


def model_gradient(model: SketchedCubicModel, s_hat: np.ndarray) -> np.ndarray:
    # grad m = g + H s + sigma ||S^T s|| G s
    gs = model.gram @ s_hat
    return model.g_hat + model.h_hat @ s_hat + model.sigma * cubic_norm(model, s_hat) * gs


def model_hessian(model: SketchedCubicModel, s_hat: np.ndarray) -> np.ndarray:
    # hess m = H + sigma (||S^T s|| G + (G s)(G s)^T / ||S^T s||); H at s with
    # ||S^T s|| = 0 (the cubic term is twice differentiable away from 0 only)
    nrm = cubic_norm(model, s_hat)
    if nrm == 0.0:
        return model.h_hat.copy()
    gs = model.gram @ s_hat
    return model.h_hat + model.sigma * (nrm * model.gram + np.outer(gs, gs) / nrm)


def quadratic_decrease(model: SketchedCubicModel, s_hat: np.ndarray) -> float:
    """f0 - q(s): decrease of the quadratic part, the rho denominator."""
    return -float(model.g_hat @ s_hat + 0.5 * (s_hat @ model.h_hat @ s_hat))


def check_termination(
    model: SketchedCubicModel,
    s_hat: np.ndarray,
    kappa_t: float,
    kappa_s: float,
) -> Tuple[bool, bool, bool]:
    """The three step-acceptance conditions on an approximate minimizer.

    Returns (m(s) <= m(0),
             ||grad m(s)|| <= kappa_t ||S^T s||^2,
             lambda_min(hess m(s)) >= -kappa_s ||S^T s||),
    the last two with a 1e-12 absolute slack for roundoff.  ``solve``
    does not call this; it is the oracle its tests check solutions with.
    """
    nrm = cubic_norm(model, s_hat)
    decrease_ok = model_value(model, s_hat) <= model.f0
    grad_ok = bool(
        np.linalg.norm(model_gradient(model, s_hat))
        <= kappa_t * nrm**2 + _TERMINATION_SLACK
    )
    lam_min = float(np.linalg.eigvalsh(model_hessian(model, s_hat))[0])
    curv_ok = lam_min >= -kappa_s * nrm - _TERMINATION_SLACK
    return decrease_ok, grad_ok, curv_ok


def _secular_norm(mu: float, lam: np.ndarray, w2: np.ndarray) -> Tuple[float, float]:
    """||u(mu)|| and d||u(mu)||/dmu for u(mu) = -(diag(lam)+mu I)^{-1} w.

    Components with w = 0 contribute nothing even on the boundary
    lam + mu = 0; components with w != 0 there produce +inf, which the
    safeguarded iteration treats as phi > 0.
    """
    denom = lam + mu
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        terms = np.where(w2 == 0.0, 0.0, w2 / denom**2)
        norm2 = float(np.sum(terms))
        if not np.isfinite(norm2):
            return np.inf, -np.inf
        nrm = np.sqrt(norm2)
        if nrm == 0.0:
            return 0.0, 0.0
        d3 = np.where(w2 == 0.0, 0.0, w2 / denom**3)
        return nrm, -float(np.sum(d3)) / nrm


def _solve_secular(
    lam: np.ndarray,
    w: np.ndarray,
    sigma: float,
    inner_tol: float,
    max_inner: int,
) -> Tuple[float, int]:
    """Root of phi(mu) = sigma ||u(mu)|| - mu on [max(0, -lam_min), inf).

    Safeguarded Newton with a bisection fallback; phi is strictly
    decreasing on the bracket, and the upper end
    mu_lo + sqrt(sigma ||w||) is an analytic bound on the root.
    """
    w2 = w**2
    mu_lo = max(0.0, -float(lam[0]))
    lo = mu_lo
    hi = mu_lo + np.sqrt(sigma * np.linalg.norm(w)) + 1e-16
    evals = 0

    # guard against the analytic bound being grazed by roundoff
    for _ in range(64):
        nrm, _ = _secular_norm(hi, lam, w2)
        evals += 1
        if sigma * nrm - hi <= 0.0:
            break
        hi = 2.0 * hi - lo + 1.0
    else:
        raise InnerSolverError("could not bracket the secular root")

    mu = 0.5 * (lo + hi)
    best_mu, best_abs = hi, np.inf
    while evals < max_inner:
        nrm, dnrm = _secular_norm(mu, lam, w2)
        evals += 1
        phi = sigma * nrm - mu
        if np.isfinite(phi) and abs(phi) < best_abs:
            best_mu, best_abs = mu, abs(phi)
        if np.isfinite(phi) and abs(phi) <= inner_tol * max(1.0, mu):
            return mu, evals
        if phi > 0.0:
            lo = mu
        else:
            hi = mu
        if hi - lo <= 4.0 * np.finfo(float).eps * max(1.0, hi):
            return best_mu, evals
        step_ok = np.isfinite(phi) and np.isfinite(dnrm)
        if step_ok:
            dphi = sigma * dnrm - 1.0
            nxt = mu - phi / dphi
            if not (lo < nxt < hi):
                nxt = 0.5 * (lo + hi)
        else:
            nxt = 0.5 * (lo + hi)
        mu = nxt
    raise InnerSolverError(
        f"secular root-finding did not converge in {max_inner} evaluations"
    )


def solve(
    model: SketchedCubicModel,
    inner_tol: float = 1e-10,
    max_inner: int = 200,
) -> SubproblemSolution:
    """Global minimizer of the sketched cubic model.

    Works in the whitened variables u = L^T s, eigendecomposes the
    transformed Hessian and solves the secular equation exactly (to
    inner_tol), with an eigenvector correction in the hard case.  A global
    minimizer meets the conditions of ``check_termination`` in exact
    arithmetic, so they are not evaluated here.  The solution carries the
    transformed Hessian's eigenvalues; with an identity Gram they are those
    of the model Hessian itself.
    """
    l_chol = model.chol
    if model.identity_gram:
        g_t = model.g_hat
        h_t = model.h_hat
    else:
        g_t = np.linalg.solve(l_chol, model.g_hat)
        h_t = np.linalg.solve(l_chol, np.linalg.solve(l_chol, model.h_hat).T).T
        h_t = 0.5 * (h_t + h_t.T)
    lam, vecs = np.linalg.eigh(h_t)
    w = vecs.T @ g_t
    sigma = model.sigma

    gnorm = float(np.linalg.norm(w))
    lam1 = float(lam[0])
    mu_lo = max(0.0, -lam1)
    iterations = 0

    if gnorm == 0.0 and lam1 >= 0.0:
        y = np.zeros_like(w)
        mu = 0.0
    else:
        group = lam <= lam1 + _EIG_GROUP_TOL * max(1.0, abs(lam1))
        w_min = float(np.linalg.norm(w[group]))
        hard_candidate = lam1 < 0.0 and w_min <= _HARD_CASE_TOL * gnorm
        y = None
        if hard_candidate:
            w_eff = np.where(group, 0.0, w)
            u_perp = np.zeros_like(w)
            u_perp[~group] = -w[~group] / (lam[~group] + mu_lo)
            p = float(np.linalg.norm(u_perp))
            target = mu_lo / sigma
            if p < target:
                # interior solution too short: pad along the minimal eigenvector
                alpha = np.sqrt(target**2 - p**2)
                y = u_perp.copy()
                y[0] += alpha
                mu = mu_lo
            else:
                w = w_eff  # treat the negligible components as exact zeros
        if y is None:
            mu, iterations = _solve_secular(lam, w, sigma, inner_tol, max_inner)
            denom = lam + mu
            with np.errstate(divide="ignore", invalid="ignore"):
                y = np.where(w == 0.0, 0.0, -w / denom)
            if not np.all(np.isfinite(y)):
                raise InnerSolverError("secular solution has non-finite components")

    u = vecs @ y
    s_hat = u if model.identity_gram else np.linalg.solve(l_chol.T, u)
    step_norm = float(np.linalg.norm(y))

    # model decrease evaluated in the eigenbasis: adding it to f0 cannot
    # round above f0 when it is nonpositive
    decrease = float(w @ y + 0.5 * np.sum(lam * y**2) + (sigma / 3.0) * step_norm**3)
    value = model.f0 + decrease
    grad_norm = float(np.linalg.norm(model_gradient(model, s_hat)))
    return SubproblemSolution(
        s_hat=s_hat,
        model_value=value,
        model_gradient_norm=grad_norm,
        cubic_norm=step_norm,
        inner_iterations=iterations,
        eigenvalues=lam,
    )
