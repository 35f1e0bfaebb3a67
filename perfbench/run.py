"""Solve benchmark for rsarc: time whole solves, and trace their layers.

Run from the root of a checkout; the package is imported from its ``src/``:

    python3 perfbench/run.py --workload lowrank-rarcd --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

One invocation runs one workload (``all`` runs each in its own process).
It builds the workload's instances several times (``setup_s`` is the
median), then repeats timed passes over the same inputs until
``--seconds`` is used up, and reports medians over the passes.  Every
solve's output and every CSV written is checked; a failed check prints the
problem and exits with status 1.  With ``--trace 1`` each pass runs once
plain and once under the tracer, and the per-layer self times are
reported instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are
those that BENCHMARK.json names for the chosen ``--trace``.  The lines
before it give the environment, every end-to-end metric, and the checks.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import LayerStats, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: every end-to-end metric the benchmark computes, with its unit
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ms_per_iter": "ms",
    "ms_per_iter_gmean": "ms",
    "iterations": "count",
    "rel_hessians": "count",
    "solved_frac": "ratio",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: per-layer metrics: self time (ms per pass), calls and work per layer
_LAYER_TIMES = (
    "problems.hessian",
    "problems.value",
    "problems.gradient",
    "sketch.draw",
    "sketch.sketch_hessian",
    "sketch.sketch_gradient",
    "sketch.gram",
    "sketch.numerical_rank",
    "subproblem.build_model",
    "subproblem.solve",
    "subproblem.check_termination",
    "bench.solved_budget",
    "bench.data_profile",
    "bench.write_csv",
)
PER_LAYER_UNITS = {
    **{f"{layer}.ms": "ms" for layer in _LAYER_TIMES},
    "solver.run.self_ms": "ms",
    "problems.hessian.calls": "count",
    "problems.hessian.bytes": "B",
    "problems.value.calls": "count",
    "problems.gradient.calls": "count",
    "sketch.draw.calls": "count",
    "sketch.sketch_hessian.flops": "flop",
    "subproblem.inner_iterations": "count",
    "subproblem.build_model.failures": "count",
    "subproblem.solve.failures": "count",
    "solver.accept_ratio": "ratio",
    "solver.draws_per_iter": "ratio",
    "solver.l_mean": "rows",
    "trace.wall_s": "s",
    "trace.overhead_ms": "ms",
    "trace.self_share": "ratio",
}


def import_rsarc():
    """Import the package from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "rsarc" / "__init__.py").is_file():
        raise SystemExit(f"error: {src}/rsarc not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import rsarc  # imports every submodule the benchmark uses

    if not Path(rsarc.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: rsarc imported from {rsarc.__file__}, not from {src}")
    return rsarc


def blas_threads():
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    libdirs = [Path(np.__file__).parent / ".libs", Path(np.__file__).parent.parent / "numpy.libs"]
    for lib in (p for d in libdirs for p in sorted(glob.glob(str(d / "*openblas*")))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    keep = ("name", "version", "openblas configuration")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in keep},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in keep},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def declared_metrics(spec: dict, trace: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json asks for in this mode."""
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    known = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    for name, unit in declared.items():
        if known.get(name) != unit:
            raise SystemExit(f"error: BENCHMARK.json metric {name} [{unit}] is not produced here")
    return declared


def timed_loop(seconds: float, step):
    """Call ``step`` at least once, then again while another call still fits."""
    start = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(step(len(results)))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return results


@dataclass
class PassTiming:
    """What a run keeps of a pass once it is checked, so memory stays flat."""

    wall_s: float
    ms_per_iter_gmean: float
    solves: int
    layers: Optional[dict] = None  # per-layer metrics of a traced pass


class Run:
    """One workload under one seed: set-up, passes, checks and metrics."""

    def __init__(self, rs, workload: wl.Workload, seed: int, out_root: str):
        self.rs, self.workload, self.seed, self.out_root = rs, workload, seed, out_root
        self.errors: list = []
        self.failed_solves: set = set()
        self.reference = None  # signature of the first pass
        self.counts: dict = {}  # exact outcomes of the first pass
        self.setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.instances = wl.build_instances(rs, workload, seed)
            self.setup_times.append(time.perf_counter() - t0)

    def one_pass(self, index: int, tracer: Optional[Tracer] = None) -> PassTiming:
        out_dir = os.path.join(self.out_root, f"pass{index}")
        if tracer is None:
            p = wl.run_pass(self.rs, self.workload, self.seed, self.instances, out_dir)
            layers = None
        else:
            with tracer.installed(self.rs):
                p = wl.run_pass(
                    self.rs, self.workload, self.seed, self.instances, out_dir, tracer.wrap_problem
                )
            stats = tracer.snapshot()
            layers = layer_metrics(stats, p)
            self_total = sum(st.self_s for st in stats.values())
            if self_total > p.wall_s:
                self.errors.append(f"layer self times {self_total:.4f} s exceed wall {p.wall_s:.4f} s")
        self.check(p)
        shutil.rmtree(out_dir)
        return PassTiming(p.wall_s, wl.ms_per_iter_gmean(p), len(p.solves), layers)

    def check(self, p: wl.Pass) -> None:
        self.errors += wl.check_files(self.rs, p)
        sig = wl.signature(p)
        if self.reference is None:
            self.reference = sig
            self.counts = wl.counts(self.rs, p)
            for s in p.solves:
                problems = wl.check_solve(self.rs, s)
                if problems:
                    self.failed_solves.add(wl.solve_key(s))
                    self.errors += problems
        elif sig != self.reference:
            self.errors.append("a pass over the same inputs gave different iterates or statuses")

    def end_to_end(self, passes: List[PassTiming]) -> dict:
        c = self.counts
        wall = statistics.median(p.wall_s for p in passes)
        return {
            "setup_s": statistics.median(self.setup_times),
            "wall_s": wall,
            "ms_per_iter": 1000.0 * wall / max(c["iterations"], 1),
            "ms_per_iter_gmean": statistics.median(p.ms_per_iter_gmean for p in passes),
            "iterations": c["iterations"],
            "rel_hessians": c["rel_hessians"],
            "solved_frac": c["solved_frac"],
            "failed_frac": len(c["unconverged"] | self.failed_solves) / passes[0].solves,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def layer_metrics(stats: dict, p: wl.Pass) -> dict:
    def get(name):
        return stats.get(name, LayerStats())

    rows = [row for s in p.solves if s.result for row in s.result.trace]
    iterations = max(len(rows), 1)
    out = {f"{layer}.ms": 1000.0 * get(layer).self_s for layer in _LAYER_TIMES}
    self_total = sum(st.self_s for st in stats.values())
    out.update(
        {
            "solver.run.self_ms": 1000.0 * get("solver.run").self_s,
            "problems.hessian.calls": get("problems.hessian").calls,
            "problems.hessian.bytes": get("problems.hessian").work,
            "problems.value.calls": get("problems.value").calls,
            "problems.gradient.calls": get("problems.gradient").calls,
            "sketch.draw.calls": get("sketch.draw").calls,
            "sketch.sketch_hessian.flops": get("sketch.sketch_hessian").work,
            "subproblem.inner_iterations": get("subproblem.solve").work,
            "subproblem.build_model.failures": get("subproblem.build_model").failures,
            "subproblem.solve.failures": get("subproblem.solve").failures,
            "solver.accept_ratio": sum(r.success for r in rows) / iterations,
            "solver.draws_per_iter": get("sketch.draw").calls / iterations,
            "solver.l_mean": sum(r.l_k for r in rows) / iterations,
            "trace.wall_s": p.wall_s,
            "trace.self_share": self_total / p.wall_s,
        }
    )
    return out


def measure(rs, workload, seed: int, seconds: float, trace: bool):
    out_root = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run = Run(rs, workload, seed, out_root)
        if not trace:
            passes = timed_loop(seconds, run.one_pass)
            return run, passes, run.end_to_end(passes)

        def pair(i):
            # alternate which pass goes first, so drift in machine load
            # does not land on one side of the overhead
            if i % 2:
                traced = run.one_pass(2 * i, Tracer())
                plain = run.one_pass(2 * i + 1)
            else:
                plain = run.one_pass(2 * i)
                traced = run.one_pass(2 * i + 1, Tracer())
            return plain, traced

        pairs = timed_loop(seconds, pair)
        layers = [traced.layers for _, traced in pairs]
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        plain_wall = statistics.median(plain.wall_s for plain, _ in pairs)
        metrics["trace.overhead_ms"] = 1000.0 * (metrics["trace.wall_s"] - plain_wall)
        return run, [p for pair_ in pairs for p in pair_], metrics
    finally:
        shutil.rmtree(out_root, ignore_errors=True)


def print_layers(metrics: dict) -> None:
    wall_ms = 1000.0 * metrics["trace.wall_s"]
    times = {k: v for k, v in metrics.items() if k.endswith(".ms") or k == "solver.run.self_ms"}
    print(f"{'layer self time':36s} {'ms/pass':>12s} {'share':>7s}")
    for name, value in sorted(times.items(), key=lambda kv: -kv[1]):
        print(f"{name:36s} {value:12.1f} {value / wall_ms:7.1%}")


def run_one(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared_metrics(spec, bool(args.trace))
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    rs = import_rsarc()
    workload = wl.WORKLOADS[args.workload]
    print(json.dumps({"env": environment(args.seed)}))
    run, passes, metrics = measure(rs, workload, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"workload {workload.name} seed {args.seed}: {len(passes)} passes, "
          f"{passes[0].solves} solves each; {why}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    if args.trace:
        print_layers(metrics)
    for err in run.errors:
        print(f"CHECK FAILED: {err}")
    correct = not run.errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(p.solves for p in passes),
                "failed": len(run.failed_solves),
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in declared.items()},
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is that workload's own."""
    status = 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return 1 if status else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
