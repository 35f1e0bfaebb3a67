"""Random sketching matrices and rank/embedding diagnostics.

A sketch S is an l x d matrix used to project gradients (S g) and
Hessians (S H S^T) into an l-dimensional subspace.  Scaled Gaussian
sketches have i.i.d. N(0, 1/l) entries so that E||S y||^2 = ||y||^2.

The solver draws ``SCALED_GAUSSIAN`` sketches in its sketched modes.
Full-space ARC uses S = I (l = d), which is never formed as a matrix: the
solver takes g and the symmetric part of H as they are, so ``draw`` and
the projections handle dense arrays only.  ``IDENTITY`` stays as the tag
for that sketch, which perfbench's tracer reads when it counts the flops
of ``sketch_hessian``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidDimensionError

SCALED_GAUSSIAN = "scaled_gaussian"
IDENTITY = "identity"

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
        """The l x l Gram matrix S S^T, symmetrized."""
        return symmetrize(self.matrix @ self.matrix.T)


@dataclass
class RankReport:
    """Numerical rank of a symmetric matrix with the spectrum that produced it."""

    singular_values: np.ndarray  # nonincreasing
    numerical_rank: int
    tolerance_used: float  # absolute threshold actually applied


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


def draw(distribution: str, l: int, d: int, seed: RngLike = None) -> SketchMatrix:
    """Draw an l x d sketch from the given distribution.

    Deterministic for an integer seed; pass a Generator to draw from an
    existing stream (no global RNG is ever touched).  The identity is not
    drawn: it is no matrix (see the module docstring).
    """
    if l < 1 or l > d:
        raise InvalidDimensionError(f"need 1 <= l <= d, got l={l}, d={d}")
    if distribution != SCALED_GAUSSIAN:
        raise InvalidDimensionError(f"cannot draw a {distribution!r} sketch")
    rng = _as_generator(seed)
    z = rng.standard_normal((l, d))
    z /= np.sqrt(l)  # in place: one l x d array per draw
    return SketchMatrix(z, distribution)


def sketch_gradient(s: SketchMatrix, grad: np.ndarray) -> np.ndarray:
    """Project a gradient: returns S grad, shape (l,)."""
    if grad.shape != (s.cols,):
        raise InvalidDimensionError(
            f"gradient shape {grad.shape} incompatible with sketch cols {s.cols}"
        )
    return s.matrix @ grad


def symmetrize(m: np.ndarray) -> np.ndarray:
    """The symmetric part (M + M^T) / 2, which removes roundoff skew."""
    return 0.5 * (m + m.T)


def sketch_hessian(s: SketchMatrix, hess: np.ndarray) -> np.ndarray:
    """Project a Hessian: returns S H S^T symmetrized to kill roundoff skew."""
    if hess.shape != (s.cols, s.cols):
        raise InvalidDimensionError(
            f"hessian shape {hess.shape} incompatible with sketch cols {s.cols}"
        )
    return symmetrize(s.matrix @ hess @ s.matrix.T)


def numerical_rank(m: np.ndarray, rel_tol: float = 1e-10) -> RankReport:
    """Numerical rank of a symmetric matrix via its singular values.

    For symmetric input the singular values are the absolute eigenvalues,
    computed with eigvalsh and ranked by ``spectrum_rank``.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidDimensionError(f"need a square matrix, got shape {m.shape}")
    return spectrum_rank(np.linalg.eigvalsh(m), rel_tol)


def spectrum_rank(eigenvalues: np.ndarray, rel_tol: float = 1e-10) -> RankReport:
    """Numerical rank of a symmetric matrix with the given eigenvalues.

    The rank is the number of absolute eigenvalues exceeding rel_tol times
    the largest one; the zero matrix has rank 0.
    """
    if rel_tol <= 0:
        raise InvalidDimensionError(f"need rel_tol > 0, got {rel_tol}")
    sv = np.sort(np.abs(eigenvalues))[::-1]
    if sv.size == 0 or sv[0] == 0.0:
        return RankReport(sv, 0, 0.0)
    tol = rel_tol * sv[0]
    return RankReport(sv, int(np.count_nonzero(sv > tol)), tol)


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
