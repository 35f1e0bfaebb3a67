"""Cubic-regularization subproblem: model calculus and exact solve.

The model in the variables u (dimension l) is the classical Euclidean one

    m(u) = f0 + g.u + 0.5 u.H u + (sigma/3) ||u||^3;

a sketched model takes this form through ``whiten`` (see there), the one
function that factors a sketch's Gram matrix.  m is minimized globally by
eigendecomposition plus scalar root-finding on the secular equation
sigma ||u(mu)|| = mu with u(mu) = -(H + mu I)^{-1} g and
mu >= max(0, -lambda_min), including explicit hard-case handling; its
tolerance and evaluation cap are ``_SECULAR_TOL`` and ``_MAX_INNER``.
``build_model`` eigendecomposes H, so a model that differs only in sigma
(``dataclasses.replace(model, sigma=...)``) is solved without a second
eigendecomposition.  ``solve`` does the rest; its solution carries the
rho denominator f0 - q(u), evaluated in the eigenbasis.

The solve needs the eigenvectors V only through two products, V^T g and
V y.  Below order ``_FACTORED_MIN`` the model keeps V from
``np.linalg.eigh``.  From that order on, when numpy's OpenBLAS exports
LAPACK (``_lapack``), it keeps V factored: the Householder reflectors of
H = Q blockdiag(T_m, 0) Q^T (``_lapack.tridiagonalize``, LAPACK
``dsytrd``'s loop) and the eigenvectors Z_m of the tridiagonal T_m
(``dstedc``), so V = Q blockdiag(Z_m, I).  The reduction stops once the
block it has yet to reduce is below its own backward error,
tol = n eps ||H||_F; then m < l.  The spectrum is T_m's eigenvalues merged
in ascending order with l - m exact zeros, and the model keeps that
permutation.  Applying Q to a vector (``dormqr``, through the m - 1 kept
reflectors) costs O(l m), and Z_m acts on the first m coordinates only.
When nothing is dropped (m = l, as on any matrix of full numerical rank)
the eigenvalues are ``eigh``'s bit for bit, since ``eigh`` runs the same
reduction and ``dstedc`` and then forms Q Z, an O(l^3) product; only the
eigenbasis products round differently.  (``eigh`` first rescales a matrix
whose largest entry lies outside about [1e-146, 1e146]; on such a matrix
the two spectra agree to rounding only.)  When the reduction stops early,
the spectrum is that of a matrix within Frobenius distance about
sqrt(3) tol of H: each eigenvalue moves by at most that much, and the
l - m dropped ones are exact zeros.  In every mode ``build_model``
decomposes one triangle of the H it is given, the lower one of its
F-ordered view H^T (the upper one of a C-ordered array), and no layer
symmetrizes H.  The reduction overwrites H, and the model keeps only what
``solve`` reads, so the oracles ``model_value`` to ``check_termination``
take H from their caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import _lapack
from .errors import InnerSolverError, InvalidDimensionError, InvalidInputError, SingularGramError

#: multiplicity tolerance when grouping eigenvalues with the smallest one
_EIG_GROUP_TOL = 1e-12
#: hard case: component of the gradient along the minimal eigenspace below
#: this fraction of its norm
_HARD_CASE_TOL = 1e-12
#: absolute roundoff slack in the second/third termination conditions
_TERMINATION_SLACK = 1e-12
#: secular solve: stop at |phi(mu)| <= _SECULAR_TOL * max(1, mu), fail after _MAX_INNER evaluations
_SECULAR_TOL = 1e-10
_MAX_INNER = 200
#: order from which build_model keeps the eigenvectors factored, as Q Z;
#: build_model plus solve took 0.98 ms with eigh and 1.22 ms factored at
#: l = 64, 2.74 and 1.83 ms at l = 128 (full-rank H, 2 cores, OpenBLAS)
_FACTORED_MIN = 128


@dataclass
class SketchedCubicModel:
    """Data of the Euclidean cubic model (all in the l-dimensional space)."""

    f0: float
    g_hat: np.ndarray  # (l,)
    sigma: float
    eigenvalues: np.ndarray  # ascending spectrum of H, read from one triangle
    eigenvectors: np.ndarray  # V (l, l), or Z_m (m, m) when factored
    # V = Q blockdiag(Z_m, I) with H = Q blockdiag(T_m, 0) Q^T (l >= _FACTORED_MIN
    # and LAPACK found): the Householder reflectors below the diagonal of an F-ordered
    # (l, l) array and the scalars tau of the m - 1 kept ones, and the ascending order
    # of [T_m's eigenvalues, l - m zeros]; None: the eigenvectors are V itself
    reflectors: Optional[np.ndarray] = None
    tau: Optional[np.ndarray] = None
    order: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return self.g_hat.shape[0]


@dataclass
class SubproblemSolution:
    s_hat: np.ndarray  # the minimizer u, in the model's coordinates
    model_value: float
    predicted_decrease: float  # f0 - q(u), the rho denominator
    cubic_norm: float  # ||u||, which is ||S^T s|| for a whitened sketched model
    inner_iterations: int
    mu: float  # secular multiplier: (H + mu I) u = -g
    hard_case: bool  # the step was padded along the minimal eigenvector


def whiten(gram: np.ndarray, g_hat: np.ndarray, h_hat: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Euclidean form of a sketched model: (L^{-1} g, L^{-1} H L^{-T}, L^{-1}).

    A sketch S (l x d) restricts the step to S^T s, and the sketched model

        m(s) = f0 + g.s + 0.5 s.H s + (sigma/3) ||S^T s||^3

    couples s through the Gram matrix G = S S^T, since
    ||S^T s||^2 = s.G s.  With the Cholesky factor G = L L^T and u = L^T s,
    ||S^T s|| = ||u|| and m(s) is the Euclidean model of ``build_model``
    with gradient L^{-1} g and Hessian L^{-1} H L^{-T} (as computed, so
    symmetric to rounding), the classical subproblem of adaptive cubic
    regularization (Cartis, Gould & Toint 2011).  Its minimizer u maps back
    to s = L^{-T} u, and H and L^{-1} H L^{-T} are congruent, so they have
    the same rank (Sylvester's law of inertia).  No input is written.

    Raises InvalidDimensionError on inconsistent shapes and
    SingularGramError when G is numerically singular, which the outer loop
    treats as a signal to redraw the sketch.
    """
    l = g_hat.shape[0]
    if gram.shape != (l, l) or h_hat.shape != (l, l):
        raise InvalidDimensionError(
            f"inconsistent model shapes: g {g_hat.shape}, H {h_hat.shape}, G {gram.shape}"
        )
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularGramError("gram matrix S S^T is not positive definite") from exc
    if not np.all(np.isfinite(chol)):
        raise SingularGramError("gram factorization produced non-finite entries")
    linv = np.linalg.inv(chol)
    return linv @ g_hat, linv @ h_hat @ linv.T, linv


def build_model(f0: float, g_hat: np.ndarray, h_hat: np.ndarray, sigma: float) -> SketchedCubicModel:
    """Assemble a model: decompose H, factored from order ``_FACTORED_MIN`` on.

    Only one triangle of ``h_hat`` is read (see the module docstring).  A
    factored model overwrites ``h_hat``: a C-ordered one is reduced in place.

    Raises InvalidDimensionError on inconsistent shapes and
    InvalidInputError unless sigma > 0.
    """
    l = g_hat.shape[0]
    if h_hat.shape != (l, l):
        raise InvalidDimensionError(f"inconsistent model shapes: g {g_hat.shape}, H {h_hat.shape}")
    if not sigma > 0.0:
        raise InvalidInputError(f"need sigma > 0, got {sigma}")
    # eigh and dsytrd read the lower triangle of h_hat.T, an F-ordered view of a
    # C-ordered h_hat, which dsytrd overwrites with the reflectors
    if l < _FACTORED_MIN or not _lapack.available():
        lam, vecs = np.linalg.eigh(h_hat.T)
        return SketchedCubicModel(float(f0), g_hat, float(sigma), lam, vecs)
    reflectors = np.require(h_hat.T, np.float64, ["F_CONTIGUOUS", "WRITEABLE"])
    diag, off, tau = _lapack.tridiagonalize(reflectors)
    lam, z = _lapack.tridiagonal_eigh(diag, off)
    lam = np.concatenate([lam, np.zeros(l - lam.shape[0])])
    order = np.argsort(lam, kind="stable")
    return SketchedCubicModel(float(f0), g_hat, float(sigma), lam[order], z, reflectors, tau, order)


def _to_eigenbasis(model: SketchedCubicModel, v: np.ndarray) -> np.ndarray:
    """V^T v for the model's eigenvectors V."""
    if model.reflectors is None:
        return model.eigenvectors.T @ v
    u = _lapack.apply_q(model.reflectors, model.tau, v, transpose=True)
    m = model.eigenvectors.shape[0]
    return np.concatenate([model.eigenvectors.T @ u[:m], u[m:]])[model.order]


def _from_eigenbasis(model: SketchedCubicModel, y: np.ndarray) -> np.ndarray:
    """V y for the model's eigenvectors V."""
    if model.reflectors is None:
        return model.eigenvectors @ y
    u = np.empty_like(y)
    u[model.order] = y
    m = model.eigenvectors.shape[0]
    u[:m] = model.eigenvectors @ u[:m]
    return _lapack.apply_q(model.reflectors, model.tau, u, transpose=False)


def model_value(model: SketchedCubicModel, h_hat: np.ndarray, s_hat: np.ndarray) -> float:
    quad = model.g_hat @ s_hat + 0.5 * (s_hat @ h_hat @ s_hat)
    return model.f0 + float(quad) + (model.sigma / 3.0) * float(np.linalg.norm(s_hat)) ** 3


def model_gradient(model: SketchedCubicModel, h_hat: np.ndarray, s_hat: np.ndarray) -> np.ndarray:
    # grad m = g + H u + sigma ||u|| u
    return model.g_hat + h_hat @ s_hat + model.sigma * np.linalg.norm(s_hat) * s_hat


def model_hessian(model: SketchedCubicModel, h_hat: np.ndarray, s_hat: np.ndarray) -> np.ndarray:
    # hess m = H + sigma (||u|| I + u u^T / ||u||); H at u = 0 (the cubic
    # term is twice differentiable away from 0 only)
    nrm = np.linalg.norm(s_hat)
    if nrm == 0.0:
        return h_hat.copy()
    return h_hat + model.sigma * (nrm * np.eye(model.dim) + np.outer(s_hat, s_hat) / nrm)


def check_termination(
    model: SketchedCubicModel,
    h_hat: np.ndarray,
    s_hat: np.ndarray,
    kappa_t: float,
    kappa_s: float,
) -> Tuple[bool, bool, bool]:
    """The three step-acceptance conditions on an approximate minimizer.

    Returns (m(u) <= m(0),
             ||grad m(u)|| <= kappa_t ||u||^2,
             lambda_min(hess m(u)) >= -kappa_s ||u||),
    the last two with a 1e-12 absolute slack for roundoff.  ``solve``
    does not call this; it is the oracle its tests check solutions with.
    """
    nrm = float(np.linalg.norm(s_hat))
    decrease_ok = model_value(model, h_hat, s_hat) <= model.f0
    grad_ok = bool(
        np.linalg.norm(model_gradient(model, h_hat, s_hat))
        <= kappa_t * nrm**2 + _TERMINATION_SLACK
    )
    lam_min = float(np.linalg.eigvalsh(model_hessian(model, h_hat, s_hat))[0])
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


def _solve_secular(lam: np.ndarray, w: np.ndarray, wnorm: float, sigma: float) -> Tuple[float, int]:
    """Root of phi(mu) = sigma ||u(mu)|| - mu on [max(0, -lam_min), inf).

    Safeguarded Newton with a bisection fallback; phi is strictly
    decreasing on the bracket, and the upper end
    mu_lo + sqrt(sigma ||w||), with wnorm = ||w||, bounds the root.
    """
    w2 = w**2
    mu_lo = max(0.0, -float(lam[0]))
    lo = mu_lo
    hi = mu_lo + np.sqrt(sigma * wnorm) + 1e-16
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
    while evals < _MAX_INNER:
        nrm, dnrm = _secular_norm(mu, lam, w2)
        evals += 1
        phi = sigma * nrm - mu
        if np.isfinite(phi) and abs(phi) < best_abs:
            best_mu, best_abs = mu, abs(phi)
        if np.isfinite(phi) and abs(phi) <= _SECULAR_TOL * max(1.0, mu):
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
        f"secular root-finding did not converge in {_MAX_INNER} evaluations"
    )


def solve(model: SketchedCubicModel) -> SubproblemSolution:
    """Global minimizer of the cubic model, in the model's own coordinates.

    Works in the eigenbasis of H that ``build_model`` computed: it solves
    the secular equation exactly (to ``_SECULAR_TOL``), with an eigenvector
    correction in the hard case.  A global minimizer meets the conditions of
    ``check_termination`` in exact arithmetic, so they are not evaluated
    here.  The solution carries the predicted decrease f0 - q(u),
    evaluated in the eigenbasis.
    """
    lam = model.eigenvalues
    w = _to_eigenbasis(model, model.g_hat)
    sigma = model.sigma

    gnorm = float(np.linalg.norm(w))
    lam1 = float(lam[0])
    mu_lo = max(0.0, -lam1)
    iterations = 0
    hard_case = False

    if gnorm == 0.0 and lam1 >= 0.0:
        y = np.zeros_like(w)
        mu = 0.0
    else:
        group = lam <= lam1 + _EIG_GROUP_TOL * max(1.0, abs(lam1))
        w_min = float(np.linalg.norm(w[group]))
        hard_candidate = lam1 < 0.0 and w_min <= _HARD_CASE_TOL * gnorm
        y = None
        if hard_candidate:
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
                hard_case = True
            else:
                w = np.where(group, 0.0, w)  # the negligible components are exact zeros
                gnorm = float(np.linalg.norm(w))
        if y is None:
            mu, iterations = _solve_secular(lam, w, gnorm, sigma)
            denom = lam + mu
            with np.errstate(divide="ignore", invalid="ignore"):
                y = np.where(w == 0.0, 0.0, -w / denom)
            if not np.all(np.isfinite(y)):
                raise InnerSolverError("secular solution has non-finite components")

    s_hat = _from_eigenbasis(model, y)
    step_norm = np.linalg.norm(y)

    # model decrease evaluated in the eigenbasis: adding it to f0 cannot
    # round above f0 when it is nonpositive.  In float64, so that a step too
    # long for its cube gives a non-finite value, not an OverflowError
    with np.errstate(over="ignore", invalid="ignore"):
        quad = w @ y + 0.5 * np.sum(lam * y**2)
        value = model.f0 + float(quad + (sigma / 3.0) * step_norm**3)
    if not np.isfinite(value):
        raise InnerSolverError(f"the model value at a step of norm {step_norm:.3g} is not finite")
    return SubproblemSolution(
        s_hat=s_hat,
        model_value=value,
        predicted_decrease=-float(quad),
        cubic_norm=float(step_norm),
        inner_iterations=iterations,
        mu=float(mu),
        hard_case=hard_case,
    )
