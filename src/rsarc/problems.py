"""Unconstrained test problems with analytic derivatives and low-rank variants.

Each problem bundles value/gradient/Hessian callables with its standard
start point and (where known) the optimal objective value.  Low-rank
problems of ambient dimension d are manufactured from an r-dimensional
base problem f via g(x) = f(Q^T x) for a random column-orthonormal
Q in R^{d x r}; by the chain rule the Hessian of g has rank at most r
everywhere, so r acts as the effective rank of g.  Q is the thin-QR factor
of a Gaussian draw, built by two Cholesky QR passes (CholeskyQR2: two SYRK,
two GEMM and r x r work, about 6 d r^2 flops in level-3 BLAS); a draw too
ill-conditioned for that, with cond near u^{-1/2} or above, falls back to
Householder QR.

Every problem provides second-order information twice.  The dense d x d
``hessian`` serves ``arc`` (the identity sketch, never formed: the model
reads one triangle of H itself, in place) and output checks;
``sketched_hessian(x, S)`` returns S H(x) S^T for an l x d sketch array S
without forming H, and the sketched modes use only it.  Built-ins build it
from the columns of S in O(l^2 d) flops.  Lifted problems compute it as
(S Q) H_f(Q^T x) (S Q)^T in O(l d r + l r^2 + l^2 r) flops; each holds its
d x r embedding Q once, as one C-ordered array: Q^T x is evaluated as
x @ Q, and the dense Hessian multiplies by the transposed view Q^T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidDimensionError, InvalidInputError, UnsupportedProblemError

# Best objective values for ENGVAL1, computed to full precision with a
# second-order trust-region method from several starts (all converge to
# ||grad|| < 1e-14 with positive definite Hessian, min eigenvalue ~2.06).
# Catalogued "solution" values of 0 for this function are lower bounds
# that are not attained, so the computed minima are used instead.
_ENGVAL1_MIN = {
    50: 53.58221488520761,
    100: 109.08813614309213,
}


@dataclass
class ObjectiveProblem:
    """Callable bundle (f, grad f, hess f) plus problem metadata.

    Attributes:
        name: registry identifier, e.g. "ARWHEAD" or "l-ARWHEAD:d=1000:seed=1".
        dim: number of variables d.
        x0: standard start point, shape (d,).
        f_star: known optimal objective value, or None if unknown.
        known_rank: upper bound on rank(hess f(x)) valid at every x, or None.
        value / gradient / hessian: evaluators; pure functions of x.  The
            dense ``hessian`` serves ``arc`` (the identity sketch) and
            output checks.  It returns a new array on every call, which
            ``arc`` may overwrite: its model reduces the Hessian in place
            and reads one triangle, so the result need not be exactly
            symmetric.  ``arc`` copies a read-only result, or a view of
            other storage, before it reduces it.
        sketched_hessian: ``(x, S) -> S hess f(x) S^T`` for an l x d sketch
            array S, computed without the d x d Hessian; the sketched
            modes call it and never ``hessian``.  The result must be
            symmetric up to rounding: no layer symmetrizes it.
    """

    name: str
    dim: int
    x0: np.ndarray
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    sketched_hessian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    f_star: Optional[float] = None
    known_rank: Optional[int] = None


#: Largest ||Q1^T Q1 - I||_F accepted after the first Cholesky QR pass.
#: Yamamoto et al. (ETNA 44, 2015) bound the CholeskyQR2 error when
#: 8 cond(A) sqrt(u (d r + r (r + 1))) <= 1, i.e. for cond(A) below about
#: u^{-1/2}.  Under that condition the first pass leaves
#: ||Q1^T Q1 - I||_2 <= 5/64, and their analysis of the second pass needs
#: only that.  The Frobenius norm bounds the 2-norm from above, so a first
#: pass accepted here meets the premise even where the condition on cond(A)
#: fails; it also keeps lambda_min(Q1^T Q1) >= 59/64, so the second Cholesky
#: cannot break down.
_FIRST_PASS_TOL = 5.0 / 64.0


def cholesky_qr2(a: np.ndarray) -> np.ndarray:
    """Return Q of the thin QR factorization A = QR whose R has a positive diagonal.

    Two Cholesky QR passes (CholeskyQR2; Fukaya et al., ScalA 2014): each
    forms the Gram G = Q^T Q (one SYRK), its r x r Cholesky factor
    G = L L^T and the inverse of L, and replaces Q by Q L^{-T} (one GEMM),
    starting from Q = A.  That is about 6 d r^2 flops, all in level-3 BLAS,
    against about 4 d r^2 for Householder QR, whose panels run in level-2
    BLAS.  Cholesky factors have a positive diagonal, so Q is the unique
    factor Householder QR gives after its sign fix, up to rounding.

    When A is too ill-conditioned for the CholeskyQR2 error bound
    (cond(A) of order u^{-1/2} or more), the first Cholesky breaks down or
    leaves Q1^T Q1 far from I; then Q comes from Householder QR with the
    signs of R fixed.  The caller should hand over its only reference to A:
    A is released before the second pass allocates its result.
    """
    try:
        q = a @ np.linalg.inv(np.linalg.cholesky(a.T @ a)).T
    except np.linalg.LinAlgError:
        return _householder_q(a)
    gram = q.T @ q
    if np.linalg.norm(gram - np.eye(gram.shape[0])) > _FIRST_PASS_TOL:
        return _householder_q(a)
    del a
    return q @ np.linalg.inv(np.linalg.cholesky(gram)).T


def _householder_q(a: np.ndarray) -> np.ndarray:
    q, rmat = np.linalg.qr(a)
    # fix the sign convention so Q does not depend on QR implementation details
    signs = np.sign(np.diag(rmat))
    signs[signs == 0] = 1.0
    q *= signs
    return q


def make_orthogonal_embedding(d: int, r: int, seed) -> np.ndarray:
    """Return a d x r matrix Q with orthonormal columns, Q^T Q = I_r.

    Q is the orthonormalization (thin QR, R with a positive diagonal) of a
    d x r standard-Gaussian matrix, deterministic for a given seed.  It is
    computed by ``cholesky_qr2``: about 6 d r^2 flops in level-3 BLAS and one
    d x r array beside the draw, with a fallback to Householder QR for a draw
    too ill-conditioned for it, which a Gaussian draw with d well above r
    practically never is.
    """
    if r < 1 or r > d:
        raise InvalidDimensionError(f"need 1 <= r <= d, got r={r}, d={d}")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise InvalidInputError(f"need seed >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    return cholesky_qr2(rng.standard_normal((d, r)))


def _augmented_problem(base: ObjectiveProblem, q: np.ndarray, seed) -> ObjectiveProblem:
    def value(x):
        return base.value(x @ q)

    def gradient(x):
        return q @ base.gradient(x @ q)

    def hessian(x):
        return q @ base.hessian(x @ q) @ q.T

    def sketched_hessian(x, s):
        sq = s @ q
        return sq @ base.hessian(x @ q) @ sq.T

    rank = base.known_rank if base.known_rank is not None else base.dim
    head = base.name.split(":")[0]
    label = f"l-{head}:N={base.dim}"
    if head == "QUADRANK" and base.known_rank != base.dim:
        label += f":rank={base.known_rank}"
    label += f":d={q.shape[0]}:seed={seed}"
    return ObjectiveProblem(
        name=label,
        dim=q.shape[0],
        x0=q @ base.x0,
        value=value,
        gradient=gradient,
        hessian=hessian,
        sketched_hessian=sketched_hessian,
        f_star=base.f_star,
        known_rank=rank,
    )


def augment(base: ObjectiveProblem, d: int, seed) -> ObjectiveProblem:
    """Embed ``base`` (dimension r) into dimension d >= r as g(x) = f(Q^T x).

    The start point is lifted as x0 = Q @ base.x0, so g(x0) equals
    f(base.x0) up to rounding (Q^T Q x0_b is x0_b only to rounding) and the
    optimal value carries over unchanged.
    """
    if d < base.dim:
        raise InvalidDimensionError(
            f"ambient dimension {d} smaller than base dimension {base.dim}"
        )
    q = make_orthogonal_embedding(d, base.dim, seed)
    return _augmented_problem(base, q, seed)


# ---------------------------------------------------------------------------
# Built-in problems.  Closed forms follow the standard SIF definitions;
# start values of the four anchored problems (ARWHEAD, COSINE, ENGVAL1,
# POWER) are pinned by tests.
# ---------------------------------------------------------------------------


def _tridiagonal(name, n, x0, value, gradient, link, f_star) -> ObjectiveProblem:
    """Chained f = sum_{i<n} f_i(x_i, x_{i+1}), whose Hessian is tridiagonal:
    ``link(x)`` gives each f_i's second derivatives in x_i, in x_{i+1} and
    across; S H S^T = (S a) S^T + T + T^T with T = (S_{:, :-1} b) S_{:, 1:}^T."""
    idx = np.arange(n - 1)

    def bands(x):
        first, second, b = link(x)
        a = np.zeros(n)
        a[:-1] += first
        a[1:] += second
        return a, b

    def hessian(x):
        a, b = bands(x)
        h = np.diag(a)
        h[idx, idx + 1] = h[idx + 1, idx] = b
        return h

    def sketched_hessian(x, s):
        a, b = bands(x)
        t = (s[:, :-1] * b) @ s[:, 1:].T
        return (s * a) @ s.T + t + t.T

    return ObjectiveProblem(name, n, x0, value, gradient, hessian, sketched_hessian, f_star=f_star)


def _arwhead(n: int) -> ObjectiveProblem:
    # f(x) = sum_{i<n} ((x_i^2 + x_n^2)^2 - 4 x_i + 3), x0 = ones, f* = 0
    idx = np.arange(n - 1)

    def value(x):
        u = x[:-1] ** 2 + x[-1] ** 2
        return float(np.sum(u**2 - 4.0 * x[:-1] + 3.0))

    def gradient(x):
        u = x[:-1] ** 2 + x[-1] ** 2
        g = np.zeros_like(x)
        g[:-1] = 4.0 * x[:-1] * u - 4.0
        g[-1] = 4.0 * x[-1] * np.sum(u)
        return g

    def arrow(x):
        # the diagonal a, and v in the last row and column off the diagonal
        u = x[:-1] ** 2 + x[-1] ** 2
        a = np.append(4.0 * u + 8.0 * x[:-1] ** 2, 4.0 * np.sum(u) + 8.0 * (n - 1) * x[-1] ** 2)
        return a, 8.0 * x[:-1] * x[-1]

    def hessian(x):
        a, v = arrow(x)
        h = np.diag(a)
        h[idx, -1] = h[-1, idx] = v
        return h

    def sketched_hessian(x, s):
        a, v = arrow(x)
        p = np.outer(s[:, :-1] @ v, s[:, -1])
        return (s * a) @ s.T + p + p.T

    return ObjectiveProblem("ARWHEAD", n, np.ones(n), value, gradient, hessian, sketched_hessian, f_star=0.0)


def _cosine(n: int) -> ObjectiveProblem:
    # f(x) = sum_{i<n} cos(x_i^2 - 0.5 x_{i+1}), x0 = ones, f* = -(n-1)

    def value(x):
        return float(np.sum(np.cos(x[:-1] ** 2 - 0.5 * x[1:])))

    def gradient(x):
        t = x[:-1] ** 2 - 0.5 * x[1:]
        s = np.sin(t)
        g = np.zeros_like(x)
        g[:-1] -= 2.0 * x[:-1] * s
        g[1:] += 0.5 * s
        return g

    def link(x):
        t = x[:-1] ** 2 - 0.5 * x[1:]
        s, c = np.sin(t), np.cos(t)
        return -4.0 * x[:-1] ** 2 * c - 2.0 * s, -0.25 * c, x[:-1] * c

    return _tridiagonal("COSINE", n, np.ones(n), value, gradient, link, f_star=-(n - 1.0))


def _engval1(n: int) -> ObjectiveProblem:
    # f(x) = sum_{i<n} ((x_i^2 + x_{i+1}^2)^2 - 4 x_i + 3), x0 = 2*ones

    def value(x):
        u = x[:-1] ** 2 + x[1:] ** 2
        return float(np.sum(u**2 - 4.0 * x[:-1] + 3.0))

    def gradient(x):
        u = x[:-1] ** 2 + x[1:] ** 2
        g = np.zeros_like(x)
        g[:-1] += 4.0 * x[:-1] * u - 4.0
        g[1:] += 4.0 * x[1:] * u
        return g

    def link(x):
        u = x[:-1] ** 2 + x[1:] ** 2
        return 4.0 * u + 8.0 * x[:-1] ** 2, 4.0 * u + 8.0 * x[1:] ** 2, 8.0 * x[:-1] * x[1:]

    return _tridiagonal("ENGVAL1", n, 2.0 * np.ones(n), value, gradient, link, f_star=_ENGVAL1_MIN.get(n))


def _power(n: int) -> ObjectiveProblem:
    # f(x) = (sum_i i x_i^2)^2, x0 = ones, f* = 0 at the origin
    w = np.arange(1.0, n + 1.0)

    def value(x):
        return float(np.dot(w, x**2) ** 2)

    def gradient(x):
        return 4.0 * np.dot(w, x**2) * (w * x)

    def hessian(x):
        t = np.dot(w, x**2)
        v = w * x
        return 4.0 * t * np.diag(w) + 8.0 * np.outer(v, v)

    def sketched_hessian(x, s):
        sv = s @ (w * x)
        return 4.0 * np.dot(w, x**2) * ((s * w) @ s.T) + 8.0 * np.outer(sv, sv)

    return ObjectiveProblem("POWER", n, np.ones(n), value, gradient, hessian, sketched_hessian, f_star=0.0)


def _nondquar(n: int) -> ObjectiveProblem:
    # f(x) = (x_1-x_2)^2 + (x_{n-1}-x_n)^2 + sum_{i<=n-2} (x_i+x_{i+1}+x_n)^4
    # x0 alternates +1/-1, f* = 0
    end = np.array([[2.0, -2.0], [-2.0, 2.0]])  # the Hessian of each squared difference

    def value(x):
        t = x[:-2] + x[1:-1] + x[-1]
        return float((x[0] - x[1]) ** 2 + (x[-2] - x[-1]) ** 2 + np.sum(t**4))

    def gradient(x):
        t = x[:-2] + x[1:-1] + x[-1]
        g = np.zeros_like(x)
        g[0] += 2.0 * (x[0] - x[1])
        g[1] -= 2.0 * (x[0] - x[1])
        g[-2] += 2.0 * (x[-2] - x[-1])
        g[-1] -= 2.0 * (x[-2] - x[-1])
        c = 4.0 * t**3
        g[:-2] += c
        g[1:-1] += c
        g[-1] += np.sum(c)
        return g

    def hessian(x):
        t = x[:-2] + x[1:-1] + x[-1]
        h = np.zeros((n, n))
        h[:2, :2] += end
        h[-2:, -2:] += end
        c = 12.0 * t**2
        for i in range(n - 2):
            for a in (i, i + 1, n - 1):
                for b in (i, i + 1, n - 1):
                    h[a, b] += c[i]
        return h

    def sketched_hessian(x, s):
        # sum_i c_i v_i v_i^T with v_i = S (e_i + e_{i+1} + e_n), and the two end blocks
        v = s[:, :-2] + s[:, 1:-1] + s[:, -1:]
        c = 12.0 * (x[:-2] + x[1:-1] + x[-1]) ** 2
        head, tail = s[:, 0] - s[:, 1], s[:, -2] - s[:, -1]
        return (v * c) @ v.T + 2.0 * (np.outer(head, head) + np.outer(tail, tail))

    x0 = np.ones(n)
    x0[1::2] = -1.0
    return ObjectiveProblem("NONDQUAR", n, x0, value, gradient, hessian, sketched_hessian, f_star=0.0)


def _rosenchain(n: int) -> ObjectiveProblem:
    # chained Rosenbrock: sum_{i<n} (100 (x_{i+1}-x_i^2)^2 + (1-x_i)^2)

    def value(x):
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    def gradient(x):
        r = x[1:] - x[:-1] ** 2
        g = np.zeros_like(x)
        g[:-1] += -400.0 * x[:-1] * r - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * r
        return g

    def link(x):
        return -400.0 * (x[1:] - x[:-1] ** 2) + 800.0 * x[:-1] ** 2 + 2.0, 200.0, -400.0 * x[:-1]

    x0 = np.ones(n)
    x0[0::2] = -1.2
    return _tridiagonal("ROSENCHAIN", n, x0, value, gradient, link, f_star=0.0)


def _quadrank(n: int, rank: int) -> ObjectiveProblem:
    # f(x) = 0.5 x^T D x - b^T x with D = diag(1..rank, 0..0) and b the
    # indicator of the first `rank` coordinates; minimizer x_i = 1/i on the
    # support, f* = -0.5 * H_rank (harmonic number).  Exact Hessian rank
    # equal to `rank` everywhere makes this the workhorse for rank tests.
    if rank < 1 or rank > n:
        raise InvalidDimensionError(f"need 1 <= rank <= N, got rank={rank}, N={n}")
    d = np.zeros(n)
    d[:rank] = np.arange(1.0, rank + 1.0)
    b = np.zeros(n)
    b[:rank] = 1.0
    f_star = -0.5 * float(np.sum(1.0 / np.arange(1.0, rank + 1.0)))

    def value(x):
        return float(0.5 * np.dot(x, d * x) - np.dot(b, x))

    def gradient(x):
        return d * x - b

    def hessian(x):
        return np.diag(d)

    def sketched_hessian(x, s):
        return (s[:, :rank] * d[:rank]) @ s[:, :rank].T

    return ObjectiveProblem(
        f"QUADRANK:d={n}:rank={rank}", n, np.zeros(n), value, gradient, hessian, sketched_hessian,
        f_star=f_star, known_rank=rank,
    )


def quadrank_minimizer(n: int, rank: int) -> np.ndarray:
    """Closed-form minimizer of the QUADRANK problem (zero off the support)."""
    x = np.zeros(n)
    x[:rank] = 1.0 / np.arange(1.0, rank + 1.0)
    return x


#: built-in problem name -> factory of N (QUADRANK's also takes the rank)
_BUILTINS = {
    "ARWHEAD": _arwhead,
    "COSINE": _cosine,
    "ENGVAL1": _engval1,
    "POWER": _power,
    "NONDQUAR": _nondquar,
    "QUADRANK": _quadrank,
    "ROSENCHAIN": _rosenchain,
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_problem(name: str, n: int, rank: Optional[int] = None) -> ObjectiveProblem:
    """Construct a built-in problem by name with dimension parameter N.

    ``rank`` applies to QUADRANK only (defaults to N, i.e. a positive
    definite quadratic).
    """
    if n < 2:
        raise InvalidDimensionError(f"need N >= 2, got {n}")
    key = name.upper()
    if key not in _BUILTINS:
        raise UnsupportedProblemError(f"unknown problem {name!r}")
    if key == "QUADRANK":
        return _quadrank(n, n if rank is None else rank)
    if rank is not None:
        raise UnsupportedProblemError(f"rank parameter not supported for {key}")
    return _BUILTINS[key](n)


def get_problem(selector: str) -> ObjectiveProblem:
    """Resolve a problem selector string from the registry.

    Built-ins: ``NAME[:N=<n>][:rank=<r>]`` (``d=`` is accepted as an alias
    for ``N=``, but not beside it), e.g. ``QUADRANK:d=10:rank=10``.

    Low-rank variants: ``l-NAME[:N=<n>]:d=<d>[:seed=<s>]``, e.g.
    ``l-ARWHEAD:d=1000:seed=1`` (N defaults to 100, seed to 0).
    """
    parts = selector.split(":")
    name = parts[0]
    params = {}
    for part in parts[1:]:
        if "=" not in part:
            raise UnsupportedProblemError(f"malformed selector component {part!r}")
        k, v = part.split("=", 1)
        if k.strip() in params:
            raise UnsupportedProblemError(f"repeated selector key {k.strip()!r} in {selector!r}")
        try:
            params[k.strip()] = int(v)
        except ValueError as exc:
            raise UnsupportedProblemError(f"non-integer parameter {part!r}") from exc

    if name.lower().startswith("l-"):
        base_name = name[2:]
        n = params.pop("N", 100)
        d = params.pop("d", None)
        seed = params.pop("seed", 0)
        rank = params.pop("rank", None)
        if params:
            raise UnsupportedProblemError(f"unknown parameters {sorted(params)}")
        if d is None:
            raise UnsupportedProblemError(f"selector {selector!r} needs d=<dim>")
        if seed < 0:
            raise UnsupportedProblemError(f"selector {selector!r} needs seed >= 0")
        return augment(builtin_problem(base_name, n, rank), d, seed)

    n = params.pop("N") if "N" in params else params.pop("d", None)
    rank = params.pop("rank", None)
    if params:
        raise UnsupportedProblemError(f"unknown parameters {sorted(params)}")
    if n is None:
        raise UnsupportedProblemError(f"selector {selector!r} needs N=<dim>")
    return builtin_problem(name, n, rank)
