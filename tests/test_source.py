"""Invariants of the package source that no behavioural test can see."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rsarc"


def test_no_bare_assert_in_library_code():
    # python -O strips assert statements, so an invariant must raise instead
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"bare assert at {found}"


#: builtin exception classes that library code wraps in the package's own
#: types (errors.py), so callers can catch every rsarc failure as RsarcError
_BUILTIN_EXCEPTIONS = {
    "ValueError", "TypeError", "KeyError", "IndexError", "RuntimeError", "AssertionError", "Exception",
}


def test_library_code_raises_no_builtin_exception_class():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in _BUILTIN_EXCEPTIONS:
                found.append(f"{path.name}:{node.lineno} raises {exc.id}")
    assert not found, found


def test_importing_the_package_loads_no_multiprocessing():
    # run_grid imports its process pool only when it uses one
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = "import sys, rsarc; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
