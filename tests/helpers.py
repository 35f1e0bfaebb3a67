"""Independent oracles: finite differences and the cubic model formula.

These stay independent of the code under test: plain central differences
of the callables, and the model written out from its definition, nothing
shared with the analytic formulas or the solver.  ``failing_lapack`` is
the one fake of a failed LAPACK subroutine that the error-path tests share,
and ``wrap_products`` the one wrapper of a problem's Hessian operator.

``secular_norm_oracle``, ``solve_secular_oracle`` and ``solve_oracle`` are
the secular evaluation, the secular solve and ``subproblem.solve`` as they
stood before their per-call overhead was cut: one error scope per
evaluation, ``np.where`` on every evaluation, the slope in the bracketing
loop too.  The rewrite must return what they return, bit for bit.  They
read the subproblem's constants when called, as ``solve`` does.
"""

import ctypes
import dataclasses

import numpy as np

from rsarc import _lapack
from rsarc import subproblem as sp
from rsarc.errors import InnerSolverError, InvalidInputError


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        hi = h * (1.0 + abs(x[i]))
        e = np.zeros_like(x)
        e[i] = hi
        g[i] = (f(x + e) - f(x - e)) / (2.0 * hi)
    return g


def fd_jacobian(grad, x, h=1e-6):
    """Central-difference Jacobian of a vector function (symmetrized)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    jac = np.zeros((n, n))
    for i in range(n):
        hi = h * (1.0 + abs(x[i]))
        e = np.zeros_like(x)
        e[i] = hi
        jac[:, i] = (grad(x + e) - grad(x - e)) / (2.0 * hi)
    return 0.5 * (jac + jac.T)


def rel_err(approx, exact):
    """Norm of the difference relative to the norm of the exact value."""
    exact = np.asarray(exact, dtype=float)
    scale = max(np.linalg.norm(exact), 1e-30)
    return np.linalg.norm(np.asarray(approx, dtype=float) - exact) / scale


def model_value_oracle(f0, g, h, sigma, gram, s):
    """f0 + g.s + s.H s / 2 + sigma/3 (s.G s)^(3/2) at s, or at each row of s.

    ``gram=None`` stands for the identity.
    """
    s = np.asarray(s, dtype=float)
    gram = np.eye(g.shape[0]) if gram is None else gram
    quad = s @ g + 0.5 * np.einsum("...i,ij,...j->...", s, h, s)
    cube = sigma / 3.0 * np.einsum("...i,ij,...j->...", s, gram, s) ** 1.5
    return f0 + quad + cube


def householder_q(a):
    """Q of the thin QR of ``a`` by Householder QR, signed so that R has a positive diagonal."""
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def failing_lapack(routine, info):
    """A fake of the bound ``routine`` that writes ``info`` through its last
    by-reference argument, where a failed LAPACK subroutine returns it."""
    last = _lapack._BINDINGS[routine][1].count(_lapack._PTR) - 1

    def failing(*args):
        ctypes.c_int64.from_address(args[last]).value = info

    return failing


def wrap_products(problem, product=lambda m, h: h):
    """A copy of ``problem`` whose Hessian operator returns ``product(m, h)`` for
    each product h = H(x) @ m of the problem's own, and the log of the operators
    it made: one list per ``hmul(x)`` call, of the shapes of the arrays m that
    operator was applied to."""
    made = []

    def hmul(x):
        op, shapes = problem.hmul(x), []
        made.append(shapes)

        def logged(m):
            shapes.append(m.shape)
            return product(m, op(m))

        return logged

    return dataclasses.replace(problem, hmul=hmul), made


def secular_norm_oracle(mu, lam, w2):
    """||u(mu)|| and d||u(mu)||/dmu for u(mu) = -(diag(lam)+mu I)^{-1} w."""
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


def solve_secular_oracle(lam, w, wnorm, sigma):
    """Root of phi(mu) = sigma ||u(mu)|| - mu on [max(0, -lam_min), inf), and its evaluations."""
    w2 = w**2
    mu_lo = max(0.0, -float(lam[0]))
    lo = mu_lo
    hi = mu_lo + np.sqrt(sigma * wnorm) + 1e-16
    evals = 0
    for _ in range(64):
        nrm, _ = secular_norm_oracle(hi, lam, w2)
        evals += 1
        if sigma * nrm - hi <= 0.0:
            break
        hi = 2.0 * hi - lo + 1.0
    else:
        raise InnerSolverError("could not bracket the secular root")
    mu = 0.5 * (lo + hi)
    best_mu, best_abs = hi, np.inf
    while evals < sp._MAX_INNER:
        nrm, dnrm = secular_norm_oracle(mu, lam, w2)
        evals += 1
        phi = sigma * nrm - mu
        if np.isfinite(phi) and abs(phi) < best_abs:
            best_mu, best_abs = mu, abs(phi)
        if np.isfinite(phi) and abs(phi) <= sp._SECULAR_TOL * max(1.0, mu):
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
    raise InnerSolverError(f"secular root-finding did not converge in {sp._MAX_INNER} evaluations")


def solve_oracle(model, sigma):
    """``subproblem.solve``: the global minimizer of the cubic model at weight sigma."""
    if not sigma > 0.0:
        raise InvalidInputError(f"need sigma > 0, got {sigma}")
    lam = model.eigenvalues
    w = model.w
    gnorm = float(np.linalg.norm(w))
    lam1 = float(lam[0])
    mu_lo = max(0.0, -lam1)
    iterations = 0
    hard_case = False
    if gnorm == 0.0 and lam1 >= 0.0:
        y = np.zeros_like(w)
        mu = 0.0
    else:
        group = lam <= lam1 + sp._EIG_GROUP_TOL * max(1.0, abs(lam1))
        w_min = float(np.linalg.norm(w[group]))
        hard_candidate = lam1 < 0.0 and w_min <= sp._HARD_CASE_TOL * gnorm
        y = None
        if hard_candidate:
            u_perp = np.zeros_like(w)
            u_perp[~group] = -w[~group] / (lam[~group] + mu_lo)
            p = float(np.linalg.norm(u_perp))
            target = mu_lo / sigma
            if p < target:
                alpha = np.sqrt(target**2 - p**2)
                y = u_perp.copy()
                y[0] += alpha
                mu = mu_lo
                hard_case = True
            else:
                w = np.where(group, 0.0, w)
                gnorm = float(np.linalg.norm(w))
        if y is None:
            mu, iterations = solve_secular_oracle(lam, w, gnorm, sigma)
            denom = lam + mu
            with np.errstate(divide="ignore", invalid="ignore"):
                y = np.where(w == 0.0, 0.0, -w / denom)
            if not np.all(np.isfinite(y)):
                raise InnerSolverError("secular solution has non-finite components")
    s_hat = sp._from_eigenbasis(model, y)
    step_norm = np.linalg.norm(y)
    with np.errstate(over="ignore", invalid="ignore"):
        quad = w @ y + 0.5 * np.sum(lam * y**2)
        value = model.f0 + float(quad + (sigma / 3.0) * step_norm**3)
    if not np.isfinite(value):
        raise InnerSolverError(f"the model value at a step of norm {step_norm:.3g} is not finite")
    return sp.SubproblemSolution(
        s_hat=s_hat,
        model_value=value,
        predicted_decrease=-float(quad),
        cubic_norm=float(step_norm),
        inner_iterations=iterations,
        mu=float(mu),
        hard_case=hard_case,
    )
