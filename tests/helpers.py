"""Independent oracles: finite differences and the cubic model formula.

These stay independent of the code under test: plain central differences
of the callables, and the model written out from its definition, nothing
shared with the analytic formulas or the solver.  ``failing_lapack`` is
the one fake of a failed LAPACK subroutine that the error-path tests share,
and ``wrap_products`` the one wrapper of a problem's Hessian operator.
"""

import ctypes
import dataclasses

import numpy as np

from rsarc import _lapack


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
