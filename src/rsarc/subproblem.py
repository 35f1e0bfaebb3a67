"""Cubic-regularization subproblem: model calculus and exact solve.

The model in the variables u (dimension l) is the classical Euclidean one

    m(u) = f0 + g.u + 0.5 u.H u + (sigma/3) ||u||^3;

a sketched model takes this form through ``whiten`` (see there), the one
function that factors a sketch's Gram matrix, and the full-space model of
``arc`` through ``lanczos``, which restricts it to a Krylov space of H
and g and needs only products H v; ``krylov_model`` decomposes its
tridiagonal T_k as the tridiagonal it is, by LAPACK's ``dstedc``, with no
dense k x k array (``np.linalg.eigh`` of the dense T_k without LAPACK).
m is minimized globally by eigendecomposition plus scalar root-finding on
the secular equation sigma ||u(mu)|| = mu with u(mu) = -(H + mu I)^{-1} g
and mu >= max(0, -lambda_min), including explicit hard-case handling; its
tolerance and evaluation cap are ``_SECULAR_TOL`` and ``_MAX_INNER``.  The
floating-point error scope of a solve lives in ``solve``: one
``np.errstate`` that ignores division by zero, overflow and invalid
operations, inside which the secular solve and each of its evaluations run
without opening their own; only the product V y runs outside it.
``build_model`` eigendecomposes H = V diag(lambda) V^T and keeps
w = V^T g; sigma is ``solve``'s argument, so one model is solved for any
sigma without a second eigendecomposition.  ``solve`` does the rest; its
solution carries the rho denominator f0 - q(u), evaluated in the eigenbasis.

V enters only through two products, V^T g (in ``build_model``) and V y
(in ``solve``).  Below order ``_FACTORED_MIN`` the model keeps V from
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
l - m dropped ones are exact zeros.  ``build_model`` decomposes one
triangle of the H it is given, the lower one of its F-ordered view H^T
(the upper one of a C-ordered array), and no layer symmetrizes H.  The
reduction overwrites H, and the model keeps only what ``solve`` reads, so
the oracles ``model_value`` to ``check_termination`` take f0, g, H and
sigma from their caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

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
#: secular solve: stop at |phi(mu)| <= _SECULAR_TOL * max(1, mu), fail after _MAX_INNER evaluations,
#: and return the best mu seen once the bracket is at most _BRACKET_TOL * max(1, hi) wide
_SECULAR_TOL = 1e-10
_MAX_INNER = 200
_BRACKET_TOL = 4.0 * float(np.finfo(float).eps)
#: order from which build_model keeps the eigenvectors factored, as Q Z;
#: build_model plus solve took 0.98 ms with eigh and 1.22 ms factored at
#: l = 64, 2.74 and 1.83 ms at l = 128 (full-rank H, 2 cores, OpenBLAS)
_FACTORED_MIN = 128
#: lanczos stops at beta_k <= d _LANCZOS_TOL ||T_k||_F, the tolerance n eps ||H||_F
#: of the truncated reduction (_lapack._DROP_TOL)
_LANCZOS_TOL = float(np.finfo(float).eps)


@dataclass
class SketchedCubicModel:
    """Data of the Euclidean cubic model but sigma (all in the l-dimensional space)."""

    f0: float
    w: np.ndarray = field(init=False)  # V^T g, the gradient in the eigenbasis; set by build_model
    eigenvalues: np.ndarray  # ascending spectrum of H, read from one triangle
    eigenvectors: np.ndarray  # V (l, l), or Z_m (m, m) when factored
    # V = Q blockdiag(Z_m, I) with H = Q blockdiag(T_m, 0) Q^T (l >= _FACTORED_MIN
    # and LAPACK found): the Householder reflectors below the diagonal of an F-ordered
    # (l, l) array and the scalars tau of the m - 1 kept ones, and the ascending order
    # of [T_m's eigenvalues, l - m zeros]; None: the eigenvectors are V itself
    reflectors: Optional[np.ndarray] = None
    tau: Optional[np.ndarray] = None
    order: Optional[np.ndarray] = None


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


def lanczos(hmul: Callable[[np.ndarray], np.ndarray], g: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An orthonormal basis V_k of the Krylov space K_k(H, g) and T_k = V_k H V_k^T.

    ``hmul(M)`` is H M for a d x j array M (a problem's Hessian operator);
    each product is of one column.  Lanczos starts from g / ||g|| and
    reorthogonalizes each new vector fully, by two classical Gram-Schmidt
    passes against every row of V_k, so the rows stay orthonormal to
    rounding and T_k is tridiagonal.  The model of ``krylov_model`` with
    gradient ||g|| e_1 and Hessian T_k is then the model of adaptive cubic
    regularization restricted to the rows of V_k, and its minimizer u gives
    the step V_k^T u (the Krylov subproblem of Cartis, Gould & Toint, Math.
    Program. 127, 2011, sections 6-7; GLTR, Gould, Lucidi, Roma & Toint,
    SIAM J. Optim. 9, 1999).  Outside the hard case that is the minimizer
    over the whole space, in exact arithmetic.  A Krylov space from g
    cannot see an eigenvector orthogonal to g, so the exact hard case, whose
    step runs along such an eigenvector, is lost.

    The run stops when the next coupling beta_k is at most
    d eps ||T_k||_F, the tolerance of the truncated tridiagonal reduction
    (``_lapack.tridiagonalize``), which on a Hessian of rank r happens
    within about r + 1 steps; or at k = d; or at once when a product is not
    finite, whose T_k then holds the non-finite entry.  V_k (k x d) grows
    with k and is not allocated for d rows ahead.

    Returns V_k and T_k as it is stored, as its diagonal alpha (k entries)
    and its sub- and superdiagonal beta (k - 1 entries).  Raises
    InvalidInputError unless ||g|| is positive and finite, and
    InvalidDimensionError when a product is not of the shape d x 1 of its
    column.
    """
    d = g.shape[0]
    gnorm = _norm(g)
    if not (gnorm > 0.0 and math.isfinite(gnorm)):
        raise InvalidInputError(f"need a nonzero finite g, got ||g|| = {gnorm}")
    basis = np.empty((1, d))
    np.divide(g, gnorm, out=basis[0])
    alpha: list = []
    beta: list = []
    t_norm = 0.0  # ||T_k||_F, by hypot, which cannot overflow while T_k is finite
    for k in range(1, d + 1):
        v = basis[k - 1]
        w = hmul(v[:, None])
        if w.shape != (d, 1):
            raise InvalidDimensionError(f"a Hessian product of shape {w.shape} for a column of shape {(d, 1)}")
        w = w[:, 0]
        a = float(v @ w)
        alpha.append(a)
        if not math.isfinite(a):  # a finite v @ w has a finite w
            break
        t_norm = math.hypot(t_norm, a)
        span = basis[:k]
        w = w - span.T @ (span @ w)  # a new array: the product is the operator's
        w -= span.T @ (span @ w)
        b = _norm(w)
        if k == d or b <= d * _LANCZOS_TOL * t_norm:
            break
        beta.append(b)
        t_norm = math.hypot(t_norm, b, b)
        if k == basis.shape[0]:
            basis = np.concatenate([basis, np.empty((min(k, d - k), d))])
        np.divide(w, b, out=basis[k])
    return basis[:k], np.array(alpha), np.array(beta, dtype=float)


def _norm(v: np.ndarray) -> float:
    """||v|| as ``np.linalg.norm`` computes it for a contiguous float64 v, sqrt(v @ v),
    also where the sum of squares of a finite v overflows."""
    with np.errstate(over="ignore"):
        nrm = math.sqrt(v @ v)
    if nrm == math.inf and np.all(np.isfinite(v)):
        scale = float(np.max(np.abs(v)))
        nrm = scale * float(np.linalg.norm(v / scale))
    return nrm


def build_model(f0: float, g_hat: np.ndarray, h_hat: np.ndarray) -> SketchedCubicModel:
    """Assemble a model: decompose H, factored from order ``_FACTORED_MIN`` on,
    and take g into the eigenbasis (``krylov_model`` does so for ``lanczos``'s T_k).

    Only one triangle of ``h_hat`` is read (see the module docstring).  A
    factored model overwrites ``h_hat``: a C-ordered one is reduced in place.

    Raises InvalidDimensionError on inconsistent shapes.
    """
    l = g_hat.shape[0]
    if h_hat.shape != (l, l):
        raise InvalidDimensionError(f"inconsistent model shapes: g {g_hat.shape}, H {h_hat.shape}")
    # eigh and dsytrd read the lower triangle of h_hat.T, an F-ordered view of a
    # C-ordered h_hat, which dsytrd overwrites with the reflectors
    if l < _FACTORED_MIN or not _lapack.available():
        lam, vecs = np.linalg.eigh(h_hat.T)
        model = SketchedCubicModel(float(f0), lam, vecs)
    else:
        reflectors = np.require(h_hat.T, np.float64, ["F_CONTIGUOUS", "WRITEABLE"])
        diag, off, tau = _lapack.tridiagonalize(reflectors)
        lam, z = _lapack.tridiagonal_eigh(diag, off)
        lam = np.concatenate([lam, np.zeros(l - lam.shape[0])])
        order = np.argsort(lam, kind="stable")
        model = SketchedCubicModel(float(f0), lam[order], z, reflectors, tau, order)
    model.w = _to_eigenbasis(model, g_hat)
    return model


def krylov_model(f0: float, gnorm: float, alpha: np.ndarray, beta: np.ndarray) -> SketchedCubicModel:
    """The model with gradient ``gnorm`` e_1 and the tridiagonal Hessian T of
    diagonal ``alpha`` and sub- and superdiagonal ``beta``: ``lanczos``'s T_k.

    T is decomposed as the tridiagonal it is, by LAPACK's ``dstedc``
    (``_lapack.tridiagonal_eigh``), which overwrites ``alpha`` and ``beta``.
    That is what ``np.linalg.eigh`` runs on a dense T after a reduction that
    leaves a tridiagonal matrix as it is, so the spectrum and the
    eigenvectors are ``eigh``'s of the dense T bit for bit (unless ``eigh``
    first rescales T; module docstring), and the vectors are kept C-ordered,
    as ``eigh`` returns them, so that the products of ``solve`` round as
    they would on ``eigh``'s.  Without LAPACK the model is ``build_model``'s
    of the dense T.

    Raises InvalidDimensionError on inconsistent shapes.
    """
    k = alpha.shape[0]
    if beta.shape != (k - 1,):
        raise InvalidDimensionError(f"inconsistent tridiagonal: diagonal {alpha.shape}, off-diagonal {beta.shape}")
    g_hat = np.zeros(k)
    g_hat[0] = gnorm
    if not _lapack.available():
        return build_model(f0, g_hat, np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
    lam, z = _lapack.tridiagonal_eigh(alpha, beta)
    model = SketchedCubicModel(float(f0), lam, np.ascontiguousarray(z))
    model.w = _to_eigenbasis(model, g_hat)
    return model


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


def model_value(f0: float, g_hat: np.ndarray, h_hat: np.ndarray, sigma: float, s_hat: np.ndarray) -> float:
    quad = g_hat @ s_hat + 0.5 * (s_hat @ h_hat @ s_hat)
    return f0 + float(quad) + (sigma / 3.0) * float(np.linalg.norm(s_hat)) ** 3


def model_gradient(g_hat: np.ndarray, h_hat: np.ndarray, sigma: float, s_hat: np.ndarray) -> np.ndarray:
    # grad m = g + H u + sigma ||u|| u
    return g_hat + h_hat @ s_hat + sigma * np.linalg.norm(s_hat) * s_hat


def model_hessian(h_hat: np.ndarray, sigma: float, s_hat: np.ndarray) -> np.ndarray:
    # hess m = H + sigma (||u|| I + u u^T / ||u||); H at u = 0 (the cubic
    # term is twice differentiable away from 0 only)
    nrm = np.linalg.norm(s_hat)
    if nrm == 0.0:
        return h_hat.copy()
    return h_hat + sigma * (nrm * np.eye(s_hat.shape[0]) + np.outer(s_hat, s_hat) / nrm)


def check_termination(f0: float, g_hat: np.ndarray, h_hat: np.ndarray, sigma: float, s_hat: np.ndarray,
                      kappa_t: float, kappa_s: float) -> Tuple[bool, bool, bool]:
    """The three step-acceptance conditions on an approximate minimizer.

    Returns (m(u) <= m(0),
             ||grad m(u)|| <= kappa_t ||u||^2,
             lambda_min(hess m(u)) >= -kappa_s ||u||),
    the last two with a 1e-12 absolute slack for roundoff.  ``solve``
    does not call this; it is the oracle its tests check solutions with.
    """
    nrm = float(np.linalg.norm(s_hat))
    decrease_ok = model_value(f0, g_hat, h_hat, sigma, s_hat) <= f0
    grad_ok = bool(
        np.linalg.norm(model_gradient(g_hat, h_hat, sigma, s_hat))
        <= kappa_t * nrm**2 + _TERMINATION_SLACK
    )
    lam_min = float(np.linalg.eigvalsh(model_hessian(h_hat, sigma, s_hat))[0])
    curv_ok = lam_min >= -kappa_s * nrm - _TERMINATION_SLACK
    return decrease_ok, grad_ok, curv_ok


def _secular_norm(mu: float, lam: np.ndarray, w2: np.ndarray, zero: Optional[np.ndarray]) -> Tuple[float, np.ndarray]:
    """||u(mu)|| for u(mu) = -(diag(lam)+mu I)^{-1} w, and lam + mu.

    ``w2`` is w**2 and ``zero`` its mask w2 == 0, or None when w2 has no
    zero: components with w = 0 contribute nothing even on the boundary
    lam + mu = 0; components with w != 0 there produce +inf, which the
    safeguarded iteration treats as phi > 0.
    """
    denom = lam + mu
    terms = w2 / denom**2
    if zero is not None:
        terms[zero] = 0.0
    norm2 = float(terms.sum())
    return (math.sqrt(norm2) if math.isfinite(norm2) else math.inf), denom


def _secular_slope(nrm: float, denom: np.ndarray, w2: np.ndarray, zero: Optional[np.ndarray]) -> float:
    """d||u(mu)||/dmu from a finite ||u(mu)|| = ``nrm`` and the ``denom`` = lam + mu of ``_secular_norm``."""
    if nrm == 0.0:
        return 0.0
    terms = w2 / denom**3
    if zero is not None:
        terms[zero] = 0.0
    return -float(terms.sum()) / nrm


def _solve_secular(lam: np.ndarray, w: np.ndarray, wnorm: float, sigma: float) -> Tuple[float, int]:
    """Root of phi(mu) = sigma ||u(mu)|| - mu on [max(0, -lam_min), inf), and its evaluations of phi.

    Safeguarded Newton with a bisection fallback; phi is strictly
    decreasing on the bracket, and the upper end
    mu_lo + sqrt(sigma ||w||), with wnorm = ||w||, bounds the root.  The
    bracketing loop reads ||u|| alone, not its slope.  Runs in ``solve``'s
    error scope (module docstring).
    """
    w2 = w**2
    zero = None if w2.all() else w2 == 0.0
    mu_lo = max(0.0, -float(lam[0]))
    lo = mu_lo
    hi = mu_lo + math.sqrt(sigma * wnorm) + 1e-16
    evals = 0

    # guard against the analytic bound being grazed by roundoff
    for _ in range(64):
        evals += 1
        if sigma * _secular_norm(hi, lam, w2, zero)[0] - hi <= 0.0:
            break
        hi = 2.0 * hi - lo + 1.0
    else:
        raise InnerSolverError("could not bracket the secular root")

    mu = 0.5 * (lo + hi)
    best_mu, best_abs = hi, math.inf
    while evals < _MAX_INNER:
        nrm, denom = _secular_norm(mu, lam, w2, zero)
        evals += 1
        phi = sigma * nrm - mu
        finite = math.isfinite(phi)
        if finite and abs(phi) < best_abs:
            best_mu, best_abs = mu, abs(phi)
        if finite and abs(phi) <= _SECULAR_TOL * max(1.0, mu):
            return mu, evals
        if phi > 0.0:
            lo = mu
        else:
            hi = mu
        if hi - lo <= _BRACKET_TOL * max(1.0, hi):
            return best_mu, evals
        nxt = 0.5 * (lo + hi)
        if finite:
            # Newton where it stays inside the bracket.  An infinite slope gives
            # mu itself, now lo or hi, and at dphi = 0 the step is infinite
            dphi = sigma * _secular_slope(nrm, denom, w2, zero) - 1.0
            if dphi != 0.0:
                newton = mu - phi / dphi
                if lo < newton < hi:
                    nxt = newton
        mu = nxt
    raise InnerSolverError(
        f"secular root-finding did not converge in {_MAX_INNER} evaluations"
    )


def solve(model: SketchedCubicModel, sigma: float) -> SubproblemSolution:
    """Global minimizer of the cubic model at weight sigma, in its own coordinates.

    Works in the eigenbasis of H that ``build_model`` computed: it solves
    the secular equation exactly (to ``_SECULAR_TOL``), with an eigenvector
    correction in the hard case.  A global minimizer meets the conditions of
    ``check_termination`` in exact arithmetic, so they are not evaluated
    here.  The solution carries the predicted decrease f0 - q(u),
    evaluated in the eigenbasis.  Everything but the product V y runs in
    the one floating-point error scope of the solve (module docstring).

    Raises InvalidInputError unless sigma > 0.
    """
    if not sigma > 0.0:
        raise InvalidInputError(f"need sigma > 0, got {sigma}")
    lam = model.eigenvalues
    w = model.w
    mu, iterations, hard_case = 0.0, 0, False
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gnorm = math.sqrt(w @ w)  # np.linalg.norm's sqrt(w @ w): a model's w is a contiguous float64 array
        lam1 = float(lam[0])
        y = np.zeros_like(w) if gnorm == 0.0 and lam1 >= 0.0 else None
        if y is None and lam1 < 0.0:
            mu_lo = -lam1
            group = lam <= lam1 + _EIG_GROUP_TOL * max(1.0, abs(lam1))
            if float(np.linalg.norm(w[group])) <= _HARD_CASE_TOL * gnorm:
                u_perp = np.zeros_like(w)
                u_perp[~group] = -w[~group] / (lam[~group] + mu_lo)
                p = float(np.linalg.norm(u_perp))
                target = mu_lo / sigma
                if p < target:
                    # interior solution too short: pad along the minimal eigenvector
                    u_perp[0] += np.sqrt(target**2 - p**2)
                    y, mu, hard_case = u_perp, mu_lo, True
                else:
                    w = np.where(group, 0.0, w)  # the negligible components are exact zeros
                    gnorm = float(np.linalg.norm(w))
        if y is None:
            mu, iterations = _solve_secular(lam, w, gnorm, sigma)
            y = -w / (lam + mu)
            if not w.all():
                y[w == 0.0] = 0.0
            if not np.isfinite(y).all():
                raise InnerSolverError("secular solution has non-finite components")
        # ||y|| as a float64 (np.linalg.norm's sqrt(y @ y)), so that a step too
        # long for its cube gives a non-finite model value, not an
        # OverflowError.  The decrease is evaluated in the eigenbasis: adding
        # it to f0 cannot round above f0 when it is nonpositive
        step_norm = np.sqrt(y @ y)
        quad = w @ y + 0.5 * np.sum(lam * y**2)
        value = model.f0 + float(quad + (sigma / 3.0) * step_norm**3)
    if not math.isfinite(value):
        raise InnerSolverError(f"the model value at a step of norm {step_norm:.3g} is not finite")
    return SubproblemSolution(
        s_hat=_from_eigenbasis(model, y),
        model_value=value,
        predicted_decrease=-float(quad),
        cubic_norm=float(step_norm),
        inner_iterations=iterations,
        mu=float(mu),
        hard_case=hard_case,
    )
