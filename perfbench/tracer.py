"""Per-layer self time and counts, recorded from outside the ``rsarc`` package.

The solver reaches its layers through module attributes looked up at call
time (``sk.draw``, ``sp.solve``; ``bench._run_one`` calls ``run``,
``get_problem`` and ``solved_budget`` from its module globals), and problem
derivatives through the callables stored on each ``ObjectiveProblem``.  The
tracer therefore replaces those attributes with timing wrappers while it is
installed and restores them afterwards; nothing under ``src/`` changes.

A layer's self time is the duration of its calls minus the part covered by
calls into other traced layers made from inside them, so the self times of
one pass add up to at most the pass's wall time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Callable, Dict, List, Optional


@dataclasses.dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    failures: int = 0  # calls that raised
    work: float = 0.0  # layer-specific count: bytes, flops or inner iterations


def _hessian_bytes(args, out) -> float:
    return float(out.nbytes)  # one dense d x d float64 array per call


def _sketch_hessian_flops(identity: str) -> Callable:
    def flops(args, out) -> float:
        l, d = args[0].matrix.shape
        if args[0].distribution == identity:
            return 2.0 * d * d  # 0.5 * (H + H^T)
        return 2.0 * l * d * d + 2.0 * l * l * d  # (S H) S^T

    return flops


def _inner_iterations(args, out) -> float:
    return float(out.inner_iterations)


class Tracer:
    """Accumulates calls, self time, failures and work per layer name."""

    def __init__(self) -> None:
        self.layers: Dict[str, LayerStats] = {}
        self._open: List[float] = []  # child time of each open span

    def wrap(self, name: str, fn: Callable, work: Optional[Callable] = None) -> Callable:
        stats = self.layers.setdefault(name, LayerStats())
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                stats.failures += 1
                raise
            finally:
                duration = time.perf_counter() - t0
                child = open_spans.pop()
                stats.calls += 1
                stats.self_s += duration - child
                if open_spans:
                    open_spans[-1] += duration
            if work is not None:
                stats.work += work(args, out)
            return out

        return traced

    def wrap_problem(self, problem):
        """A copy of ``problem`` whose value/gradient/Hessian are traced."""
        return dataclasses.replace(
            problem,
            value=self.wrap("problems.value", problem.value),
            gradient=self.wrap("problems.gradient", problem.gradient),
            hessian=self.wrap("problems.hessian", problem.hessian, _hessian_bytes),
        )

    def snapshot(self) -> Dict[str, LayerStats]:
        return {name: dataclasses.replace(stats) for name, stats in self.layers.items()}

    @contextlib.contextmanager
    def installed(self, rsarc_modules):
        """Patch the package's layer entry points for the duration of the block."""
        sketch, subproblem, solver, bench = (
            rsarc_modules.sketch,
            rsarc_modules.subproblem,
            rsarc_modules.solver,
            rsarc_modules.bench,
        )
        get_problem = bench.get_problem

        def traced_get_problem(selector):
            return self.wrap_problem(get_problem(selector))

        patches = [
            (sketch, "draw", self.wrap("sketch.draw", sketch.draw)),
            (sketch, "sketch_gradient", self.wrap("sketch.sketch_gradient", sketch.sketch_gradient)),
            (
                sketch,
                "sketch_hessian",
                self.wrap(
                    "sketch.sketch_hessian",
                    sketch.sketch_hessian,
                    _sketch_hessian_flops(sketch.IDENTITY),
                ),
            ),
            (sketch, "numerical_rank", self.wrap("sketch.numerical_rank", sketch.numerical_rank)),
            (
                sketch.SketchMatrix,
                "gram",
                self.wrap("sketch.gram", sketch.SketchMatrix.__dict__["gram"]),
            ),
            (subproblem, "build_model", self.wrap("subproblem.build_model", subproblem.build_model)),
            (subproblem, "solve", self.wrap("subproblem.solve", subproblem.solve, _inner_iterations)),
            (
                subproblem,
                "check_termination",
                self.wrap("subproblem.check_termination", subproblem.check_termination),
            ),
            (solver, "run", self.wrap("solver.run", solver.run)),
            (bench, "run", self.wrap("solver.run", bench.run)),
            (bench, "get_problem", traced_get_problem),
            (bench, "solved_budget", self.wrap("bench.solved_budget", bench.solved_budget)),
            (bench, "data_profile", self.wrap("bench.data_profile", bench.data_profile)),
            (bench, "write_runs_csv", self.wrap("bench.write_csv", bench.write_runs_csv)),
            (bench, "write_profile_csv", self.wrap("bench.write_csv", bench.write_profile_csv)),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
