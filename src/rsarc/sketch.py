"""Random sketching matrices and rank/embedding diagnostics.

A sketch S is an l x d matrix used to project gradients (S g) and
Hessians (S H S^T) into an l-dimensional subspace.  Scaled Gaussian
sketches have i.i.d. N(0, 1/l) entries so that E||S y||^2 = ||y||^2.

The solver draws ``SCALED_GAUSSIAN`` sketches in its sketched modes.
Full-space ARC uses S = I (l = d), which is never formed as a matrix: the
solver takes g and H as they are, so ``draw`` and the projections handle
dense arrays only; it symmetrizes no Hessian (see ``subproblem``).
``IDENTITY`` stays as the tag for that sketch, which perfbench's tracer
reads when it counts the flops of ``sketch_hessian``.  The rank helpers
return the rank as an int.

``draw`` takes its normals from a Generator, or from a ``RowStream`` over
one, as the solver does.  The stream hands out the Generator's rows of d
standard normals in stream order.  From its first ``take(l)`` with l * d
at least ``_DRAW_AHEAD_MIN`` on, if OpenBLAS runs n >= 2 threads, it sets
OpenBLAS to n - 1 and a worker thread draws the next rows while the caller
computes; ``close`` ends the worker and restores n.  Since numpy's
Generator fills l rows of d normals exactly as it fills those rows one
block after another, ``draw(SCALED_GAUSSIAN, l, d, RowStream(rng, d))``
gives bit for bit the sketches ``draw(SCALED_GAUSSIAN, l, d, rng)`` gives,
for any sequence of l.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import _lapack
from .errors import InvalidDimensionError

SCALED_GAUSSIAN = "scaled_gaussian"
IDENTITY = "identity"

#: the fewest entries l * d of a sketch that a RowStream draws ahead on a worker thread
#: (about 0.5 ms of drawing, against about 0.1 ms for each hand-off to the worker)
_DRAW_AHEAD_MIN = 2**15


class RowStream:
    """The rows of d standard normals of ``rng``, in stream order, drawn ahead.

    ``take(l)`` returns the next l rows as a fresh l x d array (or the first
    l rows of one), drawn inline until the first take of l * d >=
    ``_DRAW_AHEAD_MIN`` entries at n >= 2 OpenBLAS threads (n is read once,
    here).  That take sets OpenBLAS to n - 1 threads (at one thread that also
    ends its idle helpers, see ``_lapack.set_blas_threads``) and creates a
    one-thread worker, which from then on draws after each ``take(l)`` until
    l + 1 rows are ready.  Only the stream may draw from ``rng`` until
    ``close``, which ends the worker and restores n.
    """

    def __init__(self, rng: np.random.Generator, d: int) -> None:
        self.d = d
        self._rng = rng
        self._threads = _lapack.blas_threads()
        self._pending: Optional[Future] = None  # the worker's next ready rows
        self._worker: Optional[ThreadPoolExecutor] = None

    def _rows(self, head: np.ndarray, n: int) -> np.ndarray:
        """A fresh array of ``head``'s rows, then the stream's next rows up to n in all."""
        out = np.empty((max(n, len(head)), self.d))
        out[: len(head)] = head
        self._rng.standard_normal(out=out[len(head):])
        return out

    def take(self, l: int) -> np.ndarray:
        if self._worker is None:
            if (self._threads or 0) < 2 or l * self.d < _DRAW_AHEAD_MIN:
                return self._rng.standard_normal((l, self.d))
            _lapack.set_blas_threads(self._threads - 1)
            self._worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="rsarc-draw")
        ready = np.empty((0, self.d)) if self._pending is None else self._pending.result()
        if len(ready) < l:
            ready = self._rows(ready, l)
        # the worker copies the rows after the first l, which the caller never sees
        self._pending = self._worker.submit(self._rows, ready[l:], l + 1)
        return ready[:l]

    def close(self) -> None:
        # the rows drawn ahead of the last take are dropped unread
        if self._worker is not None:
            self._worker.shutdown(wait=True, cancel_futures=True)
            _lapack.set_blas_threads(self._threads)
        self._worker = self._pending = None


RngLike = Union[int, None, np.random.Generator]


@dataclass
class SketchMatrix:
    """An l x d dense sketch with its distribution tag."""

    matrix: np.ndarray
    distribution: str

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    def gram(self) -> np.ndarray:
        """The l x l Gram matrix S S^T; numpy forms ``S @ S.T`` by a symmetric
        rank-k update, so it is exactly symmetric."""
        return self.matrix @ self.matrix.T


@dataclass
class EmbeddingCheck:
    """Result of a Monte-Carlo distortion check over a sampled column space."""

    passed: bool
    max_distortion: float
    n_checked: int


def _as_generator(seed: RngLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def draw(distribution: str, l: int, d: int, seed: Union[RngLike, RowStream] = None) -> SketchMatrix:
    """Draw an l x d sketch from the given distribution.

    Deterministic for an integer seed; pass a Generator to draw from an
    existing stream (no global RNG is ever touched), or a RowStream over one
    for the same sketch drawn ahead.  The identity is not drawn: it is no
    matrix (see the module docstring).
    """
    if l < 1 or l > d:
        raise InvalidDimensionError(f"need 1 <= l <= d, got l={l}, d={d}")
    if distribution != SCALED_GAUSSIAN:
        raise InvalidDimensionError(f"cannot draw a {distribution!r} sketch")
    if isinstance(seed, RowStream):
        if seed.d != d:
            raise InvalidDimensionError(f"a row stream of {seed.d} columns cannot draw d={d}")
        z = seed.take(l)
    else:
        z = _as_generator(seed).standard_normal((l, d))
    z /= np.sqrt(l)  # in place: one l x d array per draw
    return SketchMatrix(z, distribution)


def sketch_gradient(s: SketchMatrix, grad: np.ndarray) -> np.ndarray:
    """Project a gradient: returns S grad, shape (l,)."""
    if grad.shape != (s.cols,):
        raise InvalidDimensionError(
            f"gradient shape {grad.shape} incompatible with sketch cols {s.cols}"
        )
    return s.matrix @ grad


def sketch_hessian(s: SketchMatrix, hess: np.ndarray) -> np.ndarray:
    """Project a Hessian: returns the symmetric part of S H S^T, free of roundoff skew."""
    if hess.shape != (s.cols, s.cols):
        raise InvalidDimensionError(
            f"hessian shape {hess.shape} incompatible with sketch cols {s.cols}"
        )
    p = s.matrix @ hess @ s.matrix.T
    return 0.5 * (p + p.T)


def numerical_rank(m: np.ndarray, rel_tol: float = 1e-10) -> int:
    """Numerical rank of a symmetric matrix via its singular values.

    For symmetric input the singular values are the absolute eigenvalues,
    computed with eigvalsh and counted by ``spectrum_rank``.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidDimensionError(f"need a square matrix, got shape {m.shape}")
    return spectrum_rank(np.linalg.eigvalsh(m), rel_tol)


def spectrum_rank(eigenvalues: np.ndarray, rel_tol: float = 1e-10) -> int:
    """Numerical rank of a symmetric matrix with the given eigenvalues.

    The rank is the number (an int) of absolute eigenvalues exceeding rel_tol
    times the largest one; the zero matrix and an empty spectrum have rank 0.
    """
    if rel_tol <= 0:
        raise InvalidDimensionError(f"need rel_tol > 0, got {rel_tol}")
    sv = np.abs(eigenvalues)
    return int(np.count_nonzero(sv > rel_tol * sv.max())) if sv.size else 0


def check_subspace_embedding(
    s: SketchMatrix,
    b: np.ndarray,
    eps: float,
    n_samples: int = 100,
    seed: RngLike = None,
) -> EmbeddingCheck:
    """Monte-Carlo check that S preserves norms on the column space of B.

    Samples unit vectors z, forms y = B z, and tests
    (1-eps) ||y||^2 <= ||S y||^2 <= (1+eps) ||y||^2 for each sample;
    zero-norm y are skipped.  This samples the subspace rather than
    certifying it, so it is a test utility, not a proof.

    Returns the pass flag and the worst observed distortion
    max |  ||S y||^2 / ||y||^2 - 1 |.
    """
    if not 0.0 < eps < 1.0:
        raise InvalidDimensionError(f"need 0 < eps < 1, got {eps}")
    if n_samples < 1:
        raise InvalidDimensionError(f"need n_samples >= 1, got {n_samples}")
    if b.ndim != 2 or b.shape[0] != s.cols:
        raise InvalidDimensionError(
            f"B shape {b.shape} incompatible with sketch cols {s.cols}"
        )
    rng = _as_generator(seed)
    z = rng.standard_normal((n_samples, b.shape[1]))
    y = z @ b.T
    ynorm2 = np.sum(y**2, axis=1)
    keep = ynorm2 > 0.0
    if not np.any(keep):
        return EmbeddingCheck(True, 0.0, 0)
    sy = y[keep] @ s.matrix.T
    ratios = np.sum(sy**2, axis=1) / ynorm2[keep]
    max_distortion = float(np.max(np.abs(ratios - 1.0)))
    return EmbeddingCheck(max_distortion <= eps, max_distortion, int(np.count_nonzero(keep)))
