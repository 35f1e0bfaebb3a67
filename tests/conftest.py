import sys
from pathlib import Path

import pytest

from rsarc import _lapack

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def blas_threads_at_least_two():
    """OpenBLAS's thread count, raised to two for the test if it is lower."""
    before = _lapack.blas_threads()
    if before is None:
        pytest.skip("numpy's OpenBLAS reports no thread count")
    _lapack.set_blas_threads(max(before, 2))
    try:
        yield max(before, 2)
    finally:
        _lapack.set_blas_threads(before)
