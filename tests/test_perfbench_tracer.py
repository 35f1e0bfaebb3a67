"""The benchmark tracer still finds every layer it patches in the package.

``perfbench/tracer.py`` replaces package attributes by name while it is
installed, so deleting or renaming one of them breaks ``perfbench/run.py
--trace 1`` without failing any other test.  This installs the tracer,
runs a small grid through it, and checks what it recorded and restored.
"""

import importlib.util
import sys
from pathlib import Path

import rsarc
from rsarc import SolverConfig

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

#: (module, attribute) pairs the tracer and the grid workload patch by name
PATCH_TARGETS = [
    (rsarc.sketch, "draw"),
    (rsarc.sketch, "sketch_gradient"),
    (rsarc.sketch, "sketch_hessian"),
    (rsarc.sketch, "numerical_rank"),
    (rsarc.sketch.SketchMatrix, "gram"),
    (rsarc.subproblem, "build_model"),
    (rsarc.subproblem, "solve"),
    (rsarc.subproblem, "check_termination"),
    (rsarc.solver, "run"),
    (rsarc.bench, "run"),
    (rsarc.bench, "get_problem"),
    (rsarc.bench, "solved_budget"),
    (rsarc.bench, "data_profile"),
    (rsarc.bench, "write_runs_csv"),
    (rsarc.bench, "write_profile_csv"),
]


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_every_layer_and_restores_it(tmp_path, monkeypatch):
    for owner, attr in PATCH_TARGETS:
        assert attr in vars(owner), f"{owner.__name__}.{attr} is gone"
    originals = [vars(owner)[attr] for owner, attr in PATCH_TARGETS]

    tracer = _load_tracer(monkeypatch).Tracer()
    configs = [SolverConfig(mode="arc", epsilon=1e-6), SolverConfig(mode="rarc-d", epsilon=1e-6)]
    with tracer.installed(rsarc):
        runs = rsarc.bench.run_grid(["l-ARWHEAD:N=10:d=40"], configs, repeats=1, seed_base=0)
        profile = rsarc.bench.data_profile(runs, 1e-2, solver_id="arc")
        rsarc.bench.write_runs_csv(runs, tmp_path / "runs.csv")
        rsarc.bench.write_profile_csv(profile, tmp_path / "profile.csv")

    assert [r.status for r in runs] == ["GradientTolReached"] * 2
    layers = tracer.layers
    assert layers["solver.run"].calls == 2
    for name in ("sketch.draw", "subproblem.solve", "subproblem.build_model",
                 "sketch.gram", "bench.solved_budget"):
        assert layers[name].calls > 0, name
    assert layers["problems.hessian"].calls == 0  # no solve forms the dense Hessian
    assert layers["subproblem.solve"].work > 0  # inner iterations were counted
    assert layers["bench.write_csv"].calls == 2
    assert all(stats.failures == 0 for stats in layers.values())

    for (owner, attr), original in zip(PATCH_TARGETS, originals):
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} was not restored"
