"""Three LAPACK routines and the BLAS thread count, bound with ctypes from numpy's OpenBLAS.

numpy's wheels bundle ``libscipy_openblas64_``, whose LAPACKE interface
exports ``scipy_LAPACKE_<routine>64_`` with 64-bit integers.  This module
binds the routines of a factored symmetric eigendecomposition from it:

  * ``dsytrd`` reduces A = Q T Q^T to a tridiagonal T, keeping Q as
    Householder reflectors in A's own storage;
  * ``dstedc`` computes T = Z diag(lambda) Z^T by divide and conquer;
  * ``dormtr`` applies Q or Q^T to a vector from the reflectors.

``np.linalg.eigh`` (LAPACK ``dsyevd``) runs the same ``dsytrd`` and
``dstedc`` and then forms V = Q Z, an O(n^3) product, so the eigenvalues
here are its own bit for bit on any matrix it does not first rescale.
LAPACKE allocates the workspace of ``dsytrd`` and ``dstedc``; ``dormtr`` runs
through ``LAPACKE_dormtr_work`` on the one-element minimum for one column,
skipping the plain wrapper's NaN scan of the reflectors and workspace query.
The routines are looked up in numpy's bundled library directory on first use;
``available()`` is False when numpy's build lacks the library or a symbol.  A
nonzero LAPACKE ``info`` raises InnerSolverError.

The same library's ``scipy_openblas_{get,set}_num_threads64_`` read and set
OpenBLAS's live thread count (``blas_threads``, ``set_blas_threads``); no
other module of the package calls them.  ``blas_threads`` is None when they
are not found.
"""

from __future__ import annotations

import ctypes
import functools
import glob
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .errors import InnerSolverError, InvalidDimensionError

_COL_MAJOR = 102
_INT = ctypes.c_int64
_PTR = ctypes.c_void_p
#: routine -> (its LAPACKE function, that function's argument types)
_BINDINGS = {
    # layout, uplo, n, a, lda, d, e, tau
    "dsytrd": ("dsytrd", [ctypes.c_int, ctypes.c_char, _INT, _PTR, _INT, _PTR, _PTR, _PTR]),
    # layout, compz, n, d, e, z, ldz
    "dstedc": ("dstedc", [ctypes.c_int, ctypes.c_char, _INT, _PTR, _PTR, _PTR, _INT]),
    # layout, side, uplo, trans, m, n, a, lda, tau, c, ldc, work, lwork
    "dormtr": ("dormtr_work", [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char,
                               _INT, _INT, _PTR, _INT, _PTR, _PTR, _INT, _PTR, _INT]),
}


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
    """name -> bound LAPACKE routine, from the first library that has all three."""
    return _bind({name: (f"scipy_LAPACKE_{symbol}64_", argtypes, _INT)
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


def _call(name: str, *args) -> None:
    info = _routines()[name](_COL_MAJOR, *args)
    if info != 0:
        raise InnerSolverError(f"LAPACKE {name} failed with info = {info}")


def _check(a: np.ndarray, shape: Tuple[int, ...]) -> None:
    """The routines read and write float64 arrays in column-major order."""
    if a.dtype != np.float64 or a.shape != shape or not (a.flags.f_contiguous and a.flags.writeable):
        raise InvalidDimensionError(
            f"LAPACKE needs a writeable F-ordered float64 array of shape {shape}, "
            f"got {a.dtype} {a.shape}"
        )


def tridiagonalize(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce the symmetric ``a`` (lower triangle read) to Q^T a Q = T.

    Overwrites ``a`` with the reflectors of Q and returns T's diagonal,
    its subdiagonal and the reflectors' scalars tau.
    """
    n = a.shape[0]
    _check(a, (n, n))
    diag, off, tau = np.empty(n), np.empty(n - 1), np.empty(n - 1)
    _call("dsytrd", b"L", n, a.ctypes.data, n, diag.ctypes.data, off.ctypes.data, tau.ctypes.data)
    return diag, off, tau


def tridiagonal_eigh(diag: np.ndarray, off: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and F-ordered eigenvectors Z of the tridiagonal T.

    ``diag`` is overwritten with the eigenvalues and returned; ``off`` is destroyed.
    """
    n = diag.shape[0]
    _check(diag, (n,))
    _check(off, (n - 1,))
    z = np.empty((n, n), order="F")
    _call("dstedc", b"I", n, diag.ctypes.data, off.ctypes.data, z.ctypes.data, n)
    return diag, z


def apply_q(reflectors: np.ndarray, tau: np.ndarray, v: np.ndarray, transpose: bool) -> np.ndarray:
    """Q^T v (``transpose``) or Q v, for the Q that ``tridiagonalize`` left in ``reflectors``."""
    n = reflectors.shape[0]
    out = np.array(v, dtype=float)  # a fresh contiguous copy, overwritten in place
    for array, shape in ((reflectors, (n, n)), (tau, (n - 1,)), (out, (n,))):
        _check(array, shape)
    trans = b"T" if transpose else b"N"
    work = np.empty(1)
    _call("dormtr", b"L", b"L", trans, n, 1, reflectors.ctypes.data, n, tau.ctypes.data,
          out.ctypes.data, n, work.ctypes.data, 1)
    return out
