"""Command-line interface: single solves, benchmark grids, profiles, embedding checks.

``solve`` takes one flag per ``SolverConfig`` field, named ``--field-name``
except ``--C`` (growth_c), ``--eps`` (epsilon) and ``--redraw`` (redraw_policy);
``bench`` takes every one but ``--mode`` and ``--seed``, which its ``--solvers``
specs and ``--seed-base`` set.  A ``--config`` file sets the same fields as flat
``key = value`` lines keyed by field name or by those three aliases, for each
flag the command takes; flags override it.  ``bench`` writes ``run_grid``'s
arguments plus ``threads`` to ``manifest.json``; ``rerun --manifest`` runs that
grid again and takes only ``--workers``, ``--traces`` and ``--out`` besides.

Exit codes for ``solve``: 0 when the gradient tolerance was reached,
2 on the iteration cap, 3 on inner-solver failure, 4 on a non-finite
f, gradient or Hessian, 5 when the predicted decrease stayed below the
rho guard on consecutive iterations (``DecreaseUnresolved``), 1 on usage
errors, malformed config files and files that cannot be read or written.
The other subcommands exit 0 on completion and 1 on malformed input,
including a malformed manifest, or on a file error; ``bench`` and ``rerun``
create ``--out`` once ``run_grid`` accepts the grid and write ``manifest.json``
once it has run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from typing import List, Optional, Tuple, get_type_hints

import numpy as np

from . import bench as bn
from . import sketch as sk
from .errors import RsarcError
from .problems import get_problem
from .solver import (
    MODE_ARC,
    MODES,
    STATUS_DECREASE_UNRESOLVED,
    STATUS_GRADIENT_TOL,
    STATUS_INNER_FAILURE,
    STATUS_MAX_ITER,
    STATUS_NON_FINITE,
    SolverConfig,
    run,
    trace_to_csv,
    write_summary,
)

_EXIT_BY_STATUS = {
    STATUS_GRADIENT_TOL: 0,
    STATUS_MAX_ITER: 2,
    STATUS_INNER_FAILURE: 3,
    STATUS_NON_FINITE: 4,
    STATUS_DECREASE_UNRESOLVED: 5,
}

_FIELD_ALIASES = {"C": "growth_c", "eps": "epsilon", "redraw": "redraw_policy"}
_FLAG_OF = {name: flag for flag, name in _FIELD_ALIASES.items()}
#: SolverConfig field name -> its type hint
_SETTINGS = get_type_hints(SolverConfig)
#: run_grid's arguments in its order -> the JSON type of the value, or [type of each item]
_GRID = {"problems": [str], "solver_configs": [dict], "repeats": int, "seed_base": int,
         "taus": [float], "metric": str}


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage errors with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _typed(where: str, key: str, value, kind: type, parse: bool = False):
    """``value`` as ``kind``: parsed to it when ``parse``, else (a JSON value) it
    must already equal its typed form, so 2.0 is an int but 1.5 and "2" are not."""
    try:
        typed = kind(value)
    except (TypeError, ValueError):
        typed = None
    if typed is None or (not parse and typed != value):
        raise RsarcError(f"{where}: {key} = {value!r} is not a valid {kind.__name__}")
    return typed


def _add_setting(settings: dict, where: str, key: str, value) -> None:
    """Add one solver setting read from a file to ``settings``, under its field name.

    Text (config-file values) is parsed to the field's type; other values
    (from JSON manifests) must already equal their parsed form.  A field
    already set, by its name or an alias, is an RsarcError.
    """
    name = _FIELD_ALIASES.get(key, key)
    if name not in _SETTINGS:
        raise RsarcError(f"{where}: unknown config key {key!r}")
    if name in settings:
        raise RsarcError(f"{where}: {key!r} sets {name} again")
    settings[name] = _typed(where, key, value, _SETTINGS[name], parse=isinstance(value, str))


def read_config_file(path: str) -> dict:
    """Flat key = value file of SolverConfig field names (or their aliases), each set once."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise RsarcError(f"{path}:{lineno}: expected key = value")
            key, raw = (part.strip() for part in line.split("=", 1))
            _add_setting(values, f"{path}:{lineno}", key, raw)
    return values


def read_manifest(path: str) -> Tuple[dict, dict]:
    """The grid record of a manifest.json written by ``bench`` (``run_grid``'s
    arguments, solver configs as SolverConfig) and its ``threads`` record.
    A key repeated in any one JSON object is an RsarcError, not the last value."""

    def unique(pairs):
        keys = [key for key, _ in pairs]
        repeated = sorted({key for key in keys if keys.count(key) > 1})
        if repeated:
            raise RsarcError(f"{path}: key(s) {repeated} repeated in one JSON object")
        return dict(pairs)

    with open(path) as fh:
        try:
            manifest = _typed(path, "manifest", json.load(fh, object_pairs_hook=unique), dict)
        except json.JSONDecodeError as exc:
            raise RsarcError(f"{path}: not a JSON manifest: {exc}") from None
    missing = [key for key in (*_GRID, "threads") if key not in manifest]
    if missing:
        raise RsarcError(f"{path}: missing manifest key(s) {missing}")
    grid = {}
    for key, kind in _GRID.items():
        if isinstance(kind, list):
            items = enumerate(_typed(path, key, manifest[key], list))
            grid[key] = [_typed(path, f"{key}[{i}]", item, kind[0]) for i, item in items]
        else:
            grid[key] = _typed(path, key, manifest[key], kind)
    for i, raw in enumerate(grid["solver_configs"]):
        settings = {}
        for key, value in raw.items():
            _add_setting(settings, f"{path}: solver_configs[{i}]", key, value)
        grid["solver_configs"][i] = SolverConfig(**settings)
    return grid, _typed(path, "threads", manifest["threads"], dict)


def _config_from_args(args) -> SolverConfig:
    config = SolverConfig()
    if args.config:
        values = read_config_file(args.config)
        per_run = [name for name in values if not hasattr(args, name)]  # bench has no --mode, --seed
        if per_run:
            raise RsarcError(f"{args.config}: bench sets {per_run} per run (--solvers, --seed-base)")
        config = replace(config, **values)
    flags = {f.name: getattr(args, f.name, None) for f in fields(SolverConfig)}
    config = replace(config, **{name: v for name, v in flags.items() if v is not None})
    config.validate()
    return config


def _add_solver_flags(parser, omit: Tuple[str, ...] = ()) -> None:
    parser.add_argument("--config", help="flat key = value file of solver settings")
    for f in (f for f in fields(SolverConfig) if f.name not in omit):
        parser.add_argument(
            "--" + _FLAG_OF.get(f.name, f.name.replace("_", "-")),
            dest=f.name,
            type=_SETTINGS[f.name],
            choices=f.metadata["choices"],
            help=f"{f.metadata['help']} (default: {f.default})",
        )


def cmd_solve(args) -> int:
    config = _config_from_args(args)
    problem = get_problem(args.problem)
    result = run(problem, config)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        stem = bn.file_stem(args.problem)
        trace_to_csv(result.trace, os.path.join(args.out, f"trace_{stem}.csv"))
        write_summary(problem, config, result, os.path.join(args.out, f"summary_{stem}.json"))
    if result.trace:
        final_l = result.trace[-1].l_k
    else:  # no iteration ran: arc's sketch is the identity, l0 is unused
        final_l = problem.dim if config.mode == MODE_ARC else config.l0
    print(
        f"{problem.name}: status={result.status} iters={len(result.trace)} "
        f"f={result.f_final:.6e} ||g||={result.grad_norm_final:.3e} l_final={final_l}"
    )
    return _EXIT_BY_STATUS.get(result.status, 3)


LOWRANK_SUITE = ("ARWHEAD", "COSINE", "ENGVAL1", "POWER")


def _suite_selectors(args) -> List[str]:
    if args.problem:
        return list(args.problem)
    if args.suite == "lowrank":
        return [f"l-{name}:N={args.N}:d={args.d}" for name in LOWRANK_SUITE]
    raise RsarcError("specify --problem selectors or --suite lowrank")


def _parse_solver_spec(spec: str, base: SolverConfig) -> SolverConfig:
    """'arc', 'rarc:l=10' or 'rarc-d:l0=2:C=2': a mode, then config-file settings (l = l0), each once."""
    head, _, rest = spec.partition(":")
    if head not in MODES:
        raise RsarcError(f"unknown solver spec {spec!r}")
    settings = {}
    for part in filter(None, rest.split(":")):
        key, _, raw = part.partition("=")
        _add_setting(settings, f"solver spec {spec!r}", "l0" if key == "l" else key, raw)
    if "mode" in settings or "seed" in settings:
        raise RsarcError(f"solver spec {spec!r}: the head sets the mode, --seed-base the seed")
    return replace(base, mode=head, **settings)


def cmd_bench(args) -> int:
    base = _config_from_args(args)
    grid = {
        "problems": _suite_selectors(args),
        "solver_configs": [_parse_solver_spec(s, base) for s in args.solvers.split(",")],
        "repeats": args.repeats,
        "seed_base": args.seed_base,
        "taus": args.tau or bn.DEFAULT_TAUS,
        "metric": args.metric,
    }
    return _run_grid(args, grid)


def cmd_rerun(args) -> int:
    grid, recorded = read_manifest(args.manifest)
    threads = bn.grid_threads(args.workers)
    if recorded != threads:
        note = f"{args.manifest} ran with threads {recorded}, this rerun uses {threads}"
        print(f"rsarc: note: {note}; its results may differ in rounding", file=sys.stderr)
    return _run_grid(args, grid)


def _run_grid(args, grid: dict) -> int:
    """Run ``grid`` (``run_grid``'s arguments) into ``args.out``: runs.csv, the
    manifest.json that ``rerun`` reads and, with ``args.traces``, the traces."""
    bn.check_grid(**grid, workers=args.workers)
    os.makedirs(args.out, exist_ok=True)  # a bad --out fails before the grid runs
    runs = bn.run_grid(**grid, out_dir=args.out if args.traces else None, workers=args.workers)
    configs = [vars(c) for c in grid["solver_configs"]]
    manifest = {**grid, "solver_configs": configs, "threads": bn.grid_threads(args.workers)}
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    bn.write_runs_csv(runs, os.path.join(args.out, "runs.csv"))
    solved = sum(1 for r in runs if any(np.isfinite(v) for v in r.n_p.values()))
    print(f"{len(runs)} runs -> {args.out}/runs.csv ({solved} solved at some tolerance)")
    return 0


def cmd_profile(args) -> int:
    runs = bn.read_runs_csv(args.runs)
    if not runs:
        raise RsarcError(f"{args.runs}: no runs to profile")
    solver_ids = sorted({r.solver_id for r in runs})
    taus = args.tau or sorted({t for r in runs for t in r.n_p}, reverse=True)
    profiles = [bn.data_profile(runs, tau, solver_id=s) for s in solver_ids for tau in taus]
    os.makedirs(args.out, exist_ok=True)
    for profile in profiles:
        name = f"profile_{profile.solver_id}_{profile.tau:g}.csv"
        bn.write_profile_csv(profile, os.path.join(args.out, name))
        print(f"{name}: pi(100) = {profile.pi[-1]:.3f}")
    return 0


def cmd_embed_check(args) -> int:
    if args.trials < 1:
        raise RsarcError(f"need --trials >= 1, got {args.trials}")
    if args.rank < 0:
        raise RsarcError(f"need --rank >= 0, got {args.rank}")
    if args.seed < 0:
        raise RsarcError(f"need --seed >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    passes = 0
    worst = 0.0
    for _ in range(args.trials):
        b = rng.standard_normal((args.d, args.rank))
        s = sk.draw(sk.SCALED_GAUSSIAN, args.l, args.d, rng)
        check = sk.check_subspace_embedding(s, b, args.eps, args.samples, rng)
        passes += check.passed
        worst = max(worst, check.max_distortion)
    rate = passes / args.trials
    print(
        f"eps={args.eps} l={args.l} d={args.d} rank={args.rank}: "
        f"pass rate {rate:.3f} over {args.trials} draws, worst distortion {worst:.4f}"
    )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="rsarc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solver on one problem")
    p_solve.add_argument("--problem", required=True, help="registry selector")
    p_solve.add_argument("--out", help="directory for trace CSV + JSON summary")
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    # no abbreviations: a solve flag such as --seed must not reach --seed-base
    p_bench = sub.add_parser("bench", help="run a benchmark grid", allow_abbrev=False)
    p_bench.add_argument("--suite", choices=("lowrank",), help="predefined problem set")
    p_bench.add_argument("--problem", action="append", help="registry selector (repeatable)")
    default = " (default: %(default)s)"
    p_bench.add_argument("--d", type=int, default=1000, help="ambient dimension for --suite" + default)
    p_bench.add_argument("--N", type=int, default=100, help="base dimension for --suite" + default)
    p_bench.add_argument("--solvers", default="arc,rarc-d",
                         help="comma list such as arc,rarc:l=10,rarc-d:C=2" + default)
    p_bench.add_argument("--repeats", type=int, default=5, help=default)
    p_bench.add_argument("--seed-base", dest="seed_base", type=int, default=0, help=default)
    p_bench.add_argument("--tau", type=float, action="append",
                         help=f"tolerance, repeatable (default: {bn.DEFAULT_TAUS})")
    p_bench.add_argument("--metric", choices=bn.METRICS, default=bn.METRIC_REL_HESSIANS, help=default)
    _add_solver_flags(p_bench, omit=("mode", "seed"))
    p_bench.set_defaults(func=cmd_bench)

    p_rerun = sub.add_parser("rerun", help="run a manifest.json's grid again", allow_abbrev=False,
                             description="Every grid and solver setting comes from --manifest.")
    p_rerun.add_argument("--manifest", required=True, help="manifest.json written by bench or rerun")
    p_rerun.set_defaults(func=cmd_rerun)
    for p in (p_bench, p_rerun):
        p.add_argument("--workers", type=int, default=1, help="processes; one BLAS thread each if > 1")
        p.add_argument("--traces", action="store_true", help="also write per-run trace CSVs")
        p.add_argument("--out", required=True)

    p_prof = sub.add_parser("profile", help="data profiles from a runs.csv")
    p_prof.add_argument("--runs", required=True)
    p_prof.add_argument("--tau", type=float, action="append")
    p_prof.add_argument("--out", required=True)
    p_prof.set_defaults(func=cmd_profile)

    p_embed = sub.add_parser("embed-check", help="Monte-Carlo subspace-embedding check")
    p_embed.add_argument("--l", type=int, required=True)
    p_embed.add_argument("--d", type=int, required=True)
    p_embed.add_argument("--rank", type=int, required=True)
    p_embed.add_argument("--eps", type=float, default=0.5)
    p_embed.add_argument("--trials", type=int, default=100)
    p_embed.add_argument("--samples", type=int, default=100)
    p_embed.add_argument("--seed", type=int, default=0)
    p_embed.set_defaults(func=cmd_embed_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RsarcError, OSError) as exc:
        print(f"rsarc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
