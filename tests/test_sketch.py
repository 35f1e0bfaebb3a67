import sys
import threading

import numpy as np
import pytest

from rsarc import (
    IDENTITY,
    SCALED_GAUSSIAN,
    InvalidDimensionError,
    check_subspace_embedding,
    draw,
    numerical_rank,
    sketch_gradient,
    sketch_hessian,
    spectrum_rank,
)
from rsarc import _lapack, sketch
from rsarc.sketch import RowStream, SketchMatrix


def test_draw_errors():
    with pytest.raises(InvalidDimensionError):
        draw(SCALED_GAUSSIAN, 5, 4)
    with pytest.raises(InvalidDimensionError):
        draw(SCALED_GAUSSIAN, 0, 4)
    with pytest.raises(InvalidDimensionError):
        draw("bogus", 2, 4)
    with pytest.raises(InvalidDimensionError):
        draw(IDENTITY, 4, 4)  # the identity is no matrix; the solver never draws it


def test_draw_deterministic():
    a = draw(SCALED_GAUSSIAN, 3, 5, seed=99)
    b = draw(SCALED_GAUSSIAN, 3, 5, seed=99)
    assert np.array_equal(a.matrix, b.matrix)


def test_a_row_stream_gives_the_inline_sketches_bit_for_bit(monkeypatch, blas_threads_at_least_two):
    # growth by one, a redraw at the same l after a singular Gram, a C = 2 jump;
    # every take is above the patched gate, so the worker draws
    monkeypatch.setattr(sketch, "_DRAW_AHEAD_MIN", 1)
    d, seed = 60, 11
    stream = RowStream(np.random.default_rng(seed), d)
    rng = np.random.default_rng(seed)
    try:
        for l in (2, 3, 3, 7, 15):
            expected = rng.standard_normal((l, d)) / np.sqrt(l)
            got = draw(SCALED_GAUSSIAN, l, d, stream).matrix
            assert got.flags.c_contiguous and np.array_equal(got, expected), l
    finally:
        stream.close()


def test_a_row_stream_keeps_stream_order_under_frequent_thread_switches(monkeypatch, blas_threads_at_least_two):
    # the worker and an inline draw share one Generator; a draw out of turn would
    # change the bits.  Any l, growing, repeated or shrinking, one row to all d
    monkeypatch.setattr(sketch, "_DRAW_AHEAD_MIN", 1)
    d, seed = 40, 5
    sizes = np.random.default_rng(1).integers(1, d + 1, size=300)
    stream = RowStream(np.random.default_rng(seed), d)
    rng = np.random.default_rng(seed)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for l in sizes:
            ahead, inline = draw(SCALED_GAUSSIAN, l, d, stream), draw(SCALED_GAUSSIAN, l, d, rng)
            assert np.array_equal(ahead.matrix, inline.matrix), l
    finally:
        sys.setswitchinterval(interval)
        stream.close()


def test_a_row_stream_draws_only_its_own_width(monkeypatch, blas_threads_at_least_two):
    monkeypatch.setattr(sketch, "_DRAW_AHEAD_MIN", 1)
    stream = RowStream(np.random.default_rng(0), 6)
    try:
        draw(SCALED_GAUSSIAN, 2, 6, stream)  # the worker is drawing ahead
        with pytest.raises(InvalidDimensionError, match="6 columns"):
            draw(SCALED_GAUSSIAN, 2, 5, stream)
    finally:
        stream.close()


@pytest.mark.parametrize("one_blas_thread", [False, True], ids=["below-the-gate", "one-blas-thread"])
def test_a_row_stream_draws_inline_below_the_gate_or_at_one_blas_thread(
    monkeypatch, blas_threads_at_least_two, one_blas_thread
):
    if one_blas_thread:
        monkeypatch.setattr(sketch, "_DRAW_AHEAD_MIN", 1)
        _lapack.set_blas_threads(1)
    live, threads, d = threading.active_count(), _lapack.blas_threads(), 50
    stream, rng = RowStream(np.random.default_rng(0), d), np.random.default_rng(0)
    for l in (2, 5, d):  # at most 2,500 entries, below the default gate
        assert np.array_equal(stream.take(l), rng.standard_normal((l, d)))
        assert (threading.active_count(), _lapack.blas_threads()) == (live, threads)
    stream.close()
    assert _lapack.blas_threads() == threads


def test_closing_a_row_stream_restores_the_blas_threads(monkeypatch, blas_threads_at_least_two):
    monkeypatch.setattr(sketch, "_DRAW_AHEAD_MIN", 1)
    n, live = blas_threads_at_least_two, threading.active_count()
    stream = RowStream(np.random.default_rng(0), 50)
    stream.take(2)
    assert (threading.active_count(), _lapack.blas_threads()) == (live + 1, n - 1)
    stream.close()
    assert (threading.active_count(), _lapack.blas_threads()) == (live, n)


def test_scaled_gaussian_norm_preservation_in_expectation():
    # sample mean of ||Sy||^2/||y||^2 over 2000 draws near 1
    rng = np.random.default_rng(17)
    y = rng.standard_normal(100)
    y /= np.linalg.norm(y)
    ratios = []
    for _ in range(2000):
        s = draw(SCALED_GAUSSIAN, 20, 100, rng)
        ratios.append(np.sum((s.matrix @ y) ** 2))
    assert 0.9 <= np.mean(ratios) <= 1.1


def test_expected_norm_multiple_directions():
    rng = np.random.default_rng(23)
    ys = [rng.standard_normal(40) for _ in range(3)]
    for y in ys:
        total = 0.0
        for _ in range(5000):
            s = draw(SCALED_GAUSSIAN, 5, 40, rng)
            total += np.sum((s.matrix @ y) ** 2) / np.sum(y**2)
        assert abs(total / 5000 - 1.0) < 0.05


def test_sketch_products_identity_and_zero():
    s = SketchMatrix(np.eye(3), IDENTITY)
    h = np.diag([1.0, 2.0, 3.0])
    assert np.array_equal(sketch_hessian(s, h), h)
    assert np.array_equal(sketch_hessian(s, np.zeros((3, 3))), np.zeros((3, 3)))
    g = np.array([5.0, 6.0, 7.0])
    assert np.array_equal(sketch_gradient(s, g), g)


def test_sketch_hessian_hand_computed():
    s = SketchMatrix(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), SCALED_GAUSSIAN)
    h = np.diag([1.0, 2.0, 3.0])
    assert np.array_equal(sketch_hessian(s, h), np.diag([1.0, 2.0]))
    assert np.array_equal(sketch_hessian(s, np.zeros((3, 3))), np.zeros((2, 2)))
    g = np.array([5.0, 6.0, 7.0])
    assert np.array_equal(sketch_gradient(s, g), np.array([5.0, 6.0]))


def test_sketch_dimension_mismatch():
    s = draw(SCALED_GAUSSIAN, 2, 4, seed=0)
    with pytest.raises(InvalidDimensionError):
        sketch_gradient(s, np.ones(5))
    with pytest.raises(InvalidDimensionError):
        sketch_hessian(s, np.ones((5, 5)))


def test_sketch_hessian_symmetric_and_psd_preserving():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((6, 12))
    h = a.T @ a / 12.0
    s = draw(SCALED_GAUSSIAN, 4, 12, rng)
    m = sketch_hessian(s, h)
    assert np.array_equal(m, m.T)
    assert np.linalg.eigvalsh(m)[0] >= -1e-12


@pytest.mark.parametrize("l, d", [(1, 5), (2, 40), (7, 7), (43, 2000), (200, 500)])
def test_gram_is_exactly_symmetric(l, d):
    # gram() does not symmetrize: numpy forms S @ S.T by a symmetric rank-k update
    g = draw(SCALED_GAUSSIAN, l, d, seed=l + d).gram()
    assert np.array_equal(g, g.T)


def test_numerical_rank_exact_zeros():
    assert numerical_rank(np.diag([1.0, 1.0, 0.0])) == 2


def test_numerical_rank_threshold():
    # the threshold is rel_tol times the largest absolute eigenvalue
    assert numerical_rank(np.diag([1.0, 1e-14]), rel_tol=1e-10) == 1
    assert numerical_rank(np.diag([-1e3, 1e-6]), rel_tol=1e-10) == 2
    assert numerical_rank(np.diag([-1e3, 1e-8]), rel_tol=1e-10) == 1


def test_numerical_rank_zero_matrix():
    assert numerical_rank(np.zeros((4, 4))) == 0


def test_spectrum_rank_is_the_count_above_the_relative_threshold():
    rng = np.random.default_rng(9)
    for rel_tol in (1e-10, 1e-3, 0.5):
        for _ in range(50):
            lam = rng.standard_normal(int(rng.integers(1, 12))) * 10.0 ** rng.integers(-12, 3, 1)
            lam[rng.uniform(size=lam.size) < 0.3] = 0.0
            got = spectrum_rank(lam, rel_tol)
            assert type(got) is int
            assert got == sum(abs(v) > rel_tol * max(abs(lam)) for v in lam)
    for lam in (np.zeros(5), np.zeros(0)):
        got = spectrum_rank(lam)
        assert type(got) is int and got == 0


def test_numerical_rank_rotation_invariant():
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    h = q @ np.diag([3.0, 2.5, 1.1, 0.9, 0.4] + [0.0] * 15) @ q.T
    assert numerical_rank(h) == 5


def test_numerical_rank_errors():
    with pytest.raises(InvalidDimensionError):
        numerical_rank(np.ones((2, 3)))
    with pytest.raises(InvalidDimensionError):
        numerical_rank(np.eye(2), rel_tol=0.0)


@pytest.mark.parametrize("r", [1, 3])
def test_rank_preservation_small(r):
    # sketched rank equals min(l, rank H) for Gaussian sketches
    rng = np.random.default_rng(1000 + r)
    d = 30
    for l in range(1, 2 * r + 1):
        for _ in range(50):
            a = rng.standard_normal((r, d))
            h = a.T @ a
            s = draw(SCALED_GAUSSIAN, l, d, rng)
            assert numerical_rank(sketch_hessian(s, h)) == min(l, r)


def test_embedding_identity_passes_exactly():
    s = SketchMatrix(np.eye(6), IDENTITY)
    b = np.random.default_rng(0).standard_normal((6, 3))
    chk = check_subspace_embedding(s, b, eps=0.1, n_samples=50, seed=1)
    assert chk.passed and chk.max_distortion == 0.0


def test_embedding_zero_sketch_fails():
    s = SketchMatrix(np.zeros((4, 6)), SCALED_GAUSSIAN)
    b = np.random.default_rng(2).standard_normal((6, 2))
    chk = check_subspace_embedding(s, b, eps=0.5, n_samples=20, seed=3)
    assert not chk.passed
    assert chk.max_distortion == pytest.approx(1.0)


def test_embedding_zero_column_space_skipped():
    s = draw(SCALED_GAUSSIAN, 4, 6, seed=0)
    chk = check_subspace_embedding(s, np.zeros((6, 2)), eps=0.5, n_samples=10, seed=4)
    assert chk.passed and chk.n_checked == 0


def test_embedding_gaussian_low_rank():
    rng = np.random.default_rng(40)
    passed = 0
    for _ in range(10):
        b = rng.standard_normal((200, 5))
        s = draw(SCALED_GAUSSIAN, 100, 200, rng)
        passed += check_subspace_embedding(s, b, eps=0.5, n_samples=100, seed=rng).passed
    assert passed >= 9


def test_embedding_errors():
    s = draw(SCALED_GAUSSIAN, 4, 6, seed=0)
    b = np.ones((6, 2))
    with pytest.raises(InvalidDimensionError):
        check_subspace_embedding(s, b, eps=1.5, n_samples=10)
    with pytest.raises(InvalidDimensionError):
        check_subspace_embedding(s, b, eps=0.5, n_samples=0)
    with pytest.raises(InvalidDimensionError):
        check_subspace_embedding(s, np.ones((7, 2)), eps=0.5, n_samples=10)
