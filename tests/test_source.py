"""Invariants of the package source that no behavioural test can see."""

import ast
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from rsarc import SolverConfig

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


def test_every_solver_setting_is_read_outside_validate():
    # a setting that nothing reads changes no run; validate() alone does not count
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        skip = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "validate"
            for node in ast.walk(fn)
        }
        read.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("config", "self")
            and id(node) not in skip
        )
    unread = [f.name for f in fields(SolverConfig) if f.name not in read]
    assert not unread, f"SolverConfig fields read nowhere outside validate: {unread}"
