"""Invariants of the package source that no behavioural test can see."""

import ast
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from rsarc import SketchedCubicModel, SolverConfig
from rsarc._lapack import _BINDINGS

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


def test_importing_the_package_loads_no_scipy():
    # the LAPACK binding comes from numpy's own OpenBLAS: importing
    # scipy.linalg.lapack as well added about 21 MB to the RSS of importing rsarc
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = "import sys, rsarc; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_importing_the_package_starts_no_thread():
    # the draw-ahead worker is created by a solve that needs it, never at import
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = "import threading, rsarc; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"


def test_only_the_lapack_binding_sets_the_blas_thread_count():
    # a solve lowers OpenBLAS's thread count through _lapack and restores it there
    controls = ("set_num_threads", "blas_thread_shutdown")
    found = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py")) if path.name != "_lapack.py"
             for name in controls if name in path.read_text()]
    assert not found, f"OpenBLAS's thread controls named outside _lapack: {found}"


def test_only_the_row_stream_decides_the_draw_ahead():
    # sketch.RowStream owns the gate, the worker and the BLAS thread switch of a solve
    names = ("_DRAW_AHEAD_MIN", "ThreadPoolExecutor")
    found = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py")) if path.name != "sketch.py"
             for name in names if name in path.read_text()]
    if "set_blas_threads" in (PACKAGE / "solver.py").read_text():
        found.append("solver.py: set_blas_threads")
    assert not found, f"the draw-ahead decided outside sketch.py: {found}"


def test_importing_the_package_binds_no_library():
    # numpy's OpenBLAS is opened by the first call that needs a routine, never at import
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    cached = "l._routines, l._thread_calls, l._end_helpers, l._block_sizes"
    code = f"import rsarc._lapack as l; print([f.cache_info().currsize for f in ({cached})])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 0, 0, 0]"


def test_only_the_lapack_binding_uses_ctypes():
    # every pointer handed to native code is checked in one module
    found = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "_lapack.py" and "ctypes" in path.read_text()]
    assert not found, f"ctypes used outside _lapack: {found}"


def test_no_source_names_lapacke():
    # LAPACK is called one way, through its Fortran symbols; LAPACKE is a test reference only
    found = [path.name for path in sorted(PACKAGE.rglob("*.py")) if "LAPACKE" in path.read_text()]
    assert not found, f"LAPACKE named in {found}"


def test_every_bound_routine_is_called_and_every_called_routine_is_bound():
    # the routine names _lapack passes to _fortran or _subroutine are the keys of _BINDINGS
    path = PACKAGE / "_lapack.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    # _subroutine forwards its own name to _fortran
    forwarding = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_subroutine"
                  for node in ast.walk(fn)}
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("_fortran", "_subroutine") and id(node) not in forwarding]
    names = [call.args[0].value for call in calls
             if call.args and isinstance(call.args[0], ast.Constant) and isinstance(call.args[0].value, str)]
    assert calls and len(names) == len(calls), "a LAPACK routine is called by a name that is not a literal"
    assert set(names) == set(_BINDINGS)


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


def test_every_solver_setting_declares_what_validate_accepts():
    # validate() checks each field against its metadata alone, with no per-field branch
    loose = [f.name for f in fields(SolverConfig)
             if f.metadata["choices"] is None and f.metadata["minimum"] is None]
    assert not loose, f"SolverConfig fields with neither choices nor minimum: {loose}"


def test_only_whiten_raises_a_singular_gram_error():
    # subproblem.whiten is the one function that factors a sketch's Gram; every
    # other layer handles the Euclidean model only
    raisers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
                exc = exc.func if isinstance(exc, ast.Call) else exc
                if isinstance(exc, ast.Name) and exc.id == "SingularGramError":
                    raisers.add(f"{path.stem}.{fn.name}")
    assert raisers == {"subproblem.whiten"}


def test_the_model_keeps_only_what_its_solve_reads():
    # a field that solve and its eigenbasis products never read is data the
    # model carries for nothing; the oracles take H from their caller
    path = PACKAGE / "subproblem.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    readers = ("solve", "_to_eigenbasis", "_from_eigenbasis")
    read = {
        node.attr
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in readers
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "model"
    }
    assert read == {f.name for f in fields(SketchedCubicModel)}


def test_each_built_in_states_its_hessian_once():
    # a built-in gives H(x) @ M; only _builtin derives the dense and sketched
    # Hessians from it, and only _augmented_problem lifts a base's
    path = PACKAGE / "problems.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    definers = {
        top.name
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
        if node is not top and isinstance(node, ast.FunctionDef) and node.name in ("hessian", "sketched_hessian")
    }
    assert definers == {"_builtin", "_augmented_problem"}


def test_only_write_rows_and_read_rows_use_the_csv_module():
    # one CSV format: write_rows builds the one csv.writer and read_rows the one reader
    uses = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.module == "csv":
                    uses.add(f"{path.stem}: from csv import")
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "csv":
                    uses.add(f"{path.stem}.{getattr(top, 'name', '<module>')}: csv.{node.attr}")
    assert uses == {"solver.write_rows: csv.writer", "solver.read_rows: csv.DictReader"}


def test_no_solve_calls_the_dense_hessian():
    # arc builds its model from hmul and the sketched modes from sketched_hessian;
    # the d x d hessian serves output checks only
    path = PACKAGE / "solver.py"
    calls = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "hessian"
    ]
    assert not calls, f"solver.py calls .hessian( at lines {calls}"


def test_the_solver_setting_types_are_computed_once():
    # get_type_hints(SolverConfig) builds solver.SETTING_KINDS at import; validate
    # and the CLI read that table instead of resolving the annotations again
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "get_type_hints"
        and node.args and isinstance(node.args[0], ast.Name) and node.args[0].id == "SolverConfig"
    ]
    assert len(calls) == 1 and calls[0].startswith("solver.py:"), calls
