"""LAPACK's tridiagonal reduction with an early stop, and the BLAS thread count, bound with ctypes from numpy's OpenBLAS.

numpy's wheels bundle ``libscipy_openblas64_``, which exports LAPACK's
Fortran routines as ``scipy_<routine>_64_`` with 64-bit integers.  This
module binds the routines of a factored symmetric eigendecomposition from
it, each through its Fortran symbol: every argument by reference, then the
hidden length of each CHARACTER argument.  A subroutine's ``info`` is its
last argument, checked in one place (``_subroutine``), where a nonzero
value raises InnerSolverError:

  * ``tridiagonalize`` runs the blocked loop of LAPACK's ``dsytrd`` ('L')
    itself: ``dlatrd`` reduces a panel of ``nb`` columns, ``dsyr2k`` updates
    the trailing block, and ``dsytd2`` reduces the last block.  It leaves
    A = Q T Q^T with Q as Householder reflectors in A's own storage, and it
    stops early once what is left to reduce is rounding noise (below);
  * ``dstedc`` computes T = Z diag(lambda) Z^T by divide and conquer;
  * ``dormqr`` applies Q or Q^T to a vector from the reflectors, on rows
    2..n, which is what ``dormtr`` ('L') does.

``nb`` and the crossover to ``dsytd2`` come from LAPACK's ``ilaenv``, as in
``dsytrd`` (once per order), so a reduction that runs to the end is
LAPACK's ``dsytrd`` bit for bit.  After each panel, which ends at column m,
the loop stops when both the coupling e = |e[m-1]| and the Frobenius norm b
of the updated trailing block B (``dlansy``) are at most tol = ``_DROP_TOL``
n ||A||_F.  ||A||_F is read off the reduction, not computed up front: the
similarity keeps it, so ||A||_F^2 = t^2 + 2 e^2 + b^2 with t = ||T_m||_F
(``dlanst``).  B's norm is computed only once e <= ``_DROP_TOL`` n t, a
gate no weaker than e <= tol since t <= ||A||_F.  Householder tridiagonalization is backward
stable: the computed T is exactly similar to A + E with ||E||_F =
O(n eps ||A||_F) (Golub & Van Loan, Matrix Computations, section 8.3), so
replacing a trailing block that small by zero keeps that guarantee, with
T = blockdiag(T_m, 0).  Only A's lower triangle is read: a computed product
whose triangles differ by rounding is reduced as the symmetric matrix with
that lower triangle, which lies within rounding of its symmetric part.
T_m's own reflectors then carry all of Q that matters: the m-th reflector
and those after it act only on the zero block, so Q keeps the first m - 1,
and applying it costs O(n m), not O(n^2).  A matrix of rank r stops at the
first panel end at or past r + 1 (T's Krylov space from e_1 has dimension
at most r + 1).

``np.linalg.eigh`` (LAPACK ``dsyevd``) runs ``dsytrd`` and ``dstedc`` and
then forms V = Q Z, an O(n^3) product, so when nothing is dropped the
eigenvalues here are its own bit for bit on any matrix it does not first
rescale.  No workspace is queried: ``dstedc`` ('I') gets its documented
minimum, 1 + 4n + n^2 doubles and 3 + 5n integers (1 and 1 when n <= 1),
and ``dormqr`` the one-element minimum for one column.  Every array is
checked in Python before its pointer is passed, so LAPACK's argument checks
(``xerbla``) are never reached.  The routines are looked up in numpy's
bundled library directory on first use; ``available()`` is False unless one
library exports every symbol.

The same library's ``scipy_openblas_{get,set}_num_threads64_`` read and set
OpenBLAS's live thread count (``blas_threads``, ``set_blas_threads``); no
other module of the package calls them.  They are C functions with no
Fortran form, so they take their arguments by value.  ``blas_threads`` is
None when they are not found.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .errors import InnerSolverError, InvalidDimensionError

_INT = ctypes.c_int64
_PTR = ctypes.c_void_p
_LEN = ctypes.c_size_t  # the hidden length of a Fortran CHARACTER argument
#: routine -> (its symbol, its argument types): every argument by reference,
#: then one hidden length per CHARACTER argument
_BINDINGS = {
    # uplo, n, nb, a, lda, e, tau, w, ldw
    "dlatrd": ("dlatrd", [_PTR] * 9 + [_LEN]),
    # uplo, trans, n, k, alpha, a, lda, b, ldb, beta, c, ldc
    "dsyr2k": ("dsyr2k", [_PTR] * 12 + [_LEN] * 2),
    # uplo, n, a, lda, d, e, tau, info
    "dsytd2": ("dsytd2", [_PTR] * 8 + [_LEN]),
    # norm, uplo, n, a, lda, work
    "dlansy": ("dlansy", [_PTR] * 6 + [_LEN] * 2),
    # norm, n, d, e
    "dlanst": ("dlanst", [_PTR] * 4 + [_LEN]),
    # ispec, name, opts, n1, n2, n3, n4
    "ilaenv": ("ilaenv", [_PTR] * 7 + [_LEN] * 2),
    # compz, n, d, e, z, ldz, work, lwork, iwork, liwork, info
    "dstedc": ("dstedc", [_PTR] * 11 + [_LEN]),
    # side, trans, m, n, k, a, lda, tau, c, ldc, work, lwork, info
    "dormqr": ("dormqr", [_PTR] * 13 + [_LEN] * 2),
}
#: the Fortran functions among them and their result types; the others are subroutines
_FUNCTIONS = {"dlansy": ctypes.c_double, "dlanst": ctypes.c_double, "ilaenv": _INT}
#: the reduction stops once the coupling and the trailing block are at most
#: _DROP_TOL n ||A||_F, the order of its own backward error (module docstring)
_DROP_TOL = float(np.finfo(float).eps)


def _bind(symbols: dict) -> Optional[dict]:
    """name -> function, from the first of numpy's OpenBLAS libraries that exports
    every symbol of ``symbols`` (name -> (symbol, argument types, result type))."""
    libdirs = [Path(np.__file__).parent / ".libs", Path(np.__file__).parent.parent / "numpy.libs"]
    for lib in (p for d in libdirs for p in sorted(glob.glob(str(d / "*openblas*")))):
        try:
            handle = ctypes.CDLL(lib)
            bound = {name: getattr(handle, symbol) for name, (symbol, _, _) in symbols.items()}
        except (OSError, AttributeError):
            continue
        for name, fn in bound.items():
            fn.argtypes, fn.restype = symbols[name][1:]
        return bound
    return None


@functools.cache
def _routines() -> Optional[dict]:
    """name -> bound LAPACK routine, from the first library that has them all."""
    return _bind({name: (f"scipy_{symbol}_64_", argtypes, _FUNCTIONS.get(name))
                  for name, (symbol, argtypes) in _BINDINGS.items()})


@functools.cache
def _thread_calls() -> Optional[dict]:
    return _bind({"get": ("scipy_openblas_get_num_threads64_", [], ctypes.c_int),
                  "set": ("scipy_openblas_set_num_threads64_", [ctypes.c_int], None)})


@functools.cache
def _end_helpers() -> Optional[dict]:
    return _bind({"end": ("blas_thread_shutdown_", [], ctypes.c_int)})


def blas_threads() -> Optional[int]:
    """OpenBLAS's live thread count, or None when numpy's OpenBLAS is not found."""
    calls = _thread_calls()
    return None if calls is None else int(calls["get"]())


def set_blas_threads(n: int) -> None:
    """Set OpenBLAS's thread count for the whole process (``blas_threads`` must not be None).

    Idle helper threads busy-wait for about 2**28 cycles after their last job,
    on a core that another thread could use, so at one thread they are ended
    by ``blas_thread_shutdown_`` (which OpenBLAS itself calls before a fork);
    OpenBLAS starts them again when the count is raised.
    """
    _thread_calls()["set"](n)
    if n == 1 and _end_helpers() is not None:
        _end_helpers()["end"]()


def available() -> bool:
    return _routines() is not None


def _fortran(name: str, *args):
    """Call a Fortran routine: an array is passed as the address of its first
    element, an int or a float by reference, and a CHARACTER (bytes) with its
    hidden length appended."""
    refs = [a.ctypes.data if isinstance(a, np.ndarray)
            else ctypes.byref(_INT(a)) if isinstance(a, (int, np.integer))
            else ctypes.byref(ctypes.c_double(a)) if isinstance(a, float)
            else a for a in args]
    return _routines()[name](*refs, *(len(a) for a in args if isinstance(a, bytes)))


def _subroutine(name: str, *args) -> None:
    """Call a Fortran subroutine with ``info`` appended; a nonzero info raises InnerSolverError."""
    info = np.zeros(1, dtype=np.int64)
    _fortran(name, *args, info)
    if info[0] != 0:
        raise InnerSolverError(f"LAPACK {name} failed with info = {int(info[0])}")


def _check(a: np.ndarray, shape: Tuple[int, ...]) -> None:
    """The routines read and write float64 arrays in column-major order."""
    if a.dtype != np.float64 or a.shape != shape or not (a.flags.f_contiguous and a.flags.writeable):
        raise InvalidDimensionError(
            f"LAPACK needs a writeable F-ordered float64 array of shape {shape}, "
            f"got {a.dtype} {a.shape}"
        )


@functools.cache
def _block_sizes(n: int) -> Tuple[int, int]:
    """``dsytrd``'s panel width nb and crossover nx; nb = 1 means unblocked."""
    nb = int(_fortran("ilaenv", 1, b"DSYTRD", b"L", n, -1, -1, -1))
    if not 1 < nb < n:
        return 1, n
    nx = max(nb, int(_fortran("ilaenv", 3, b"DSYTRD", b"L", n, -1, -1, -1)))
    return (nb, nx) if nx < n else (1, n)


def tridiagonalize(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce the symmetric ``a`` (lower triangle read) to Q^T a Q = blockdiag(T_m, 0).

    Overwrites ``a`` with the reflectors of Q and returns T_m's diagonal (m
    entries), its subdiagonal and the scalars tau of the m - 1 reflectors that
    make up Q.  m = n unless the reduction stopped early (module docstring).
    """
    n = a.shape[0]
    _check(a, (n, n))
    if n < 1:
        raise InvalidDimensionError("cannot reduce an empty matrix")
    diag, off, tau = np.empty(n), np.empty(n - 1), np.empty(n - 1)
    nb, nx = _block_sizes(n)
    work = np.empty(n)  # dlansy's; not referenced for the Frobenius norm
    w = np.empty((n, nb), order="F")
    drop = _DROP_TOL * n  # tol / ||A||_F
    step = n + 1  # from (j, j) to (j + 1, j + 1) in a's column-major storage
    flat = a.reshape(-1, order="F")
    i = 0
    while nb > 1 and i < n - nx:
        m = i + nb
        _fortran("dlatrd", b"L", n - i, nb, a[i:, i:], n, off[i:], tau[i:], w, n)
        _fortran("dsyr2k", b"L", b"N", n - m, nb, -1.0, a[m:, i:], n, w[nb:], n, 1.0, a[m:, m:], n)
        # dlatrd leaves 1 in place of each subdiagonal entry
        flat[1 + i * step:1 + m * step:step] = off[i:m]
        diag[i:m] = flat[i * step:m * step:step]
        e, t = abs(off[m - 1]), _fortran("dlanst", b"F", m, diag, off)
        if e <= drop * t:
            b = _fortran("dlansy", b"F", b"L", n - m, a[m:, m:], n, work)
            if b <= drop * math.hypot(t, math.sqrt(2.0) * e, b):
                return diag[:m], off[:m - 1], tau[:m - 1]
        i = m
    _subroutine("dsytd2", b"L", n - i, a[i:, i:], n, diag[i:], off[i:], tau[i:])
    return diag, off, tau


def tridiagonal_eigh(diag: np.ndarray, off: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and F-ordered eigenvectors Z of the tridiagonal T.

    ``diag`` is overwritten with the eigenvalues and returned; ``off`` is
    destroyed.  The workspace is allocated here, at ``dstedc``'s documented
    minimum for compz = 'I', so no workspace query runs.
    """
    n = diag.shape[0]
    _check(diag, (n,))
    _check(off, (n - 1,))
    z = np.empty((n, n), order="F")
    lwork, liwork = (1 + 4 * n + n * n, 3 + 5 * n) if n > 1 else (1, 1)
    _subroutine("dstedc", b"I", n, diag, off, z, n, np.empty(lwork), lwork,
                np.empty(liwork, dtype=np.int64), liwork)
    return diag, z


def apply_q(reflectors: np.ndarray, tau: np.ndarray, v: np.ndarray, transpose: bool) -> np.ndarray:
    """Q^T v (``transpose``) or Q v, for the Q of ``tridiagonalize``: the first
    ``len(tau)`` reflectors it left in ``reflectors``."""
    n, k = reflectors.shape[0], tau.shape[0]
    out = np.array(v, dtype=float)  # a fresh contiguous copy, overwritten in place
    for array, shape in ((reflectors, (n, n)), (tau, (k,)), (out, (n,))):
        _check(array, shape)
    if k >= n:
        raise InvalidDimensionError(f"{k} reflectors for order {n}: at most {n - 1}")
    trans = b"T" if transpose else b"N"
    # reflector j has its unit entry in row j + 1: a QR-ordered Q on rows 2..n
    _subroutine("dormqr", b"L", trans, n - 1, 1, k, reflectors[1:], n, tau, out[1:], max(1, n - 1),
                np.empty(1), 1)
    return out
