import csv
import json
import math
import os
import re
import tracemalloc

import pytest

from rsarc import _lapack, cli, write_runs_csv
from rsarc.bench import BenchmarkRun
from rsarc.cli import main
from helpers import failing_lapack, wrap_products


def test_solve_success_exit_code(tmp_path, capsys):
    code = main([
        "solve", "--problem", "QUADRANK:d=10:rank=10",
        "--mode", "arc", "--eps", "1e-8", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "GradientTolReached" in out
    assert (tmp_path / "trace_QUADRANK_d10_rank10.csv").exists()
    summary = json.loads((tmp_path / "summary_QUADRANK_d10_rank10.json").read_text())
    assert summary["status"] == "GradientTolReached"
    assert summary["config"]["epsilon"] == 1e-8
    assert summary["threads"]["blas_threads"] == _lapack.blas_threads()


def test_solve_rarc_d_on_lowrank_problem(capsys):
    code = main([
        "solve", "--problem", "l-QUADRANK:N=8:d=60:seed=1",
        "--mode", "rarc-d", "--l0", "2", "--C", "1", "--eps", "1e-6",
    ])
    assert code == 0
    assert "l_final=" in capsys.readouterr().out


@pytest.mark.parametrize("mode, l_final", [("arc", 6), ("rarc-d", 2)])
def test_solve_with_an_empty_trace_prints_the_unused_sketch_size(capsys, mode, l_final):
    # x0 already meets the tolerance: arc's sketch is the identity (l = d), rarc-d's is l0
    code = main(["solve", "--problem", "QUADRANK:d=6:rank=6", "--mode", mode, "--eps", "1e9"])
    assert code == 0
    assert re.search(r"iters=0 .* l_final=(\d+)$", capsys.readouterr().out.strip()).group(1) == str(l_final)


def test_solve_unknown_problem_exits_1(capsys):
    assert main(["solve", "--problem", "NOPE"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("selector, line", [
    ("FOO:N=3", "rsarc: error: unknown problem 'FOO'"),
    ("ARWHEAD:N=3:N=4", "rsarc: error: repeated selector key 'N' in 'ARWHEAD:N=3:N=4'"),
], ids=["unknown-name", "repeated-key"])
def test_a_bad_selector_is_reported_as_its_message(capsys, selector, line):
    # UnsupportedProblemError is a KeyError, whose own str() quotes the whole message
    assert main(["solve", "--problem", selector]) == 1
    assert capsys.readouterr().err == line + "\n"


def test_solve_max_iter_exits_2(tmp_path):
    code = main([
        "solve", "--problem", "ROSENCHAIN:N=12", "--mode", "arc",
        "--eps", "1e-12", "--max-iter", "2",
    ])
    assert code == 2


def test_solve_unresolved_decrease_exits_5(tmp_path, capsys):
    code = main([
        "solve", "--problem", "l-ARWHEAD:N=10:d=40", "--mode", "rarc-d",
        "--seed", "3", "--eps", "1e-8", "--out", str(tmp_path),
    ])
    assert code == 5
    assert "DecreaseUnresolved" in capsys.readouterr().out
    summary = json.loads((tmp_path / "summary_l-ARWHEAD_N10_d40.json").read_text())
    assert summary["rejected_steps"] >= 20
    header = (tmp_path / "trace_l-ARWHEAD_N10_d40.csv").read_text().splitlines()[0]
    assert "predicted_decrease" in header.split(",")


def test_solve_non_finite_hessian_exits_4(monkeypatch, capsys):
    get_problem = cli.get_problem

    def poisoned(selector):
        return wrap_products(get_problem(selector), lambda m, h: h * math.nan)[0]

    monkeypatch.setattr(cli, "get_problem", poisoned)
    assert main(["solve", "--problem", "QUADRANK:d=5", "--mode", "arc"]) == 4
    assert "NonFiniteDerivative" in capsys.readouterr().out


def test_solve_rarc_d_at_large_d_never_forms_a_dense_hessian(capsys):
    # one 20000 x 20000 float64 Hessian would be 3.2 GB, a 100000 x 100000 one
    # 80 GB; arc builds its model from Hessian-vector products
    cases = [
        ("l-ARWHEAD:N=100:d=20000", "rarc-d"),
        ("QUADRANK:N=100000:rank=10", "rarc-d"),
        ("l-ARWHEAD:N=100:d=20000", "arc"),
    ]
    for problem, mode in cases:
        tracemalloc.start()
        try:
            code = main(["solve", "--problem", problem, "--mode", mode])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, (problem, mode)
        assert peak < 100e6, (problem, mode)
        assert "GradientTolReached" in capsys.readouterr().out


def test_unknown_flag_fails_fast():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "QUADRANK:d=5", "--bogus-flag", "1"])
    assert exc.value.code == 1


def test_missing_subcommand_fails():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_help_documents_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--problem", "--mode", "--l0", "--C", "--eps", "--seed", "--redraw"):
        assert flag in out
    # the step test, the sigma update and the rank tolerance are constants
    for flag in ("--theta", "--sigma-min", "--gamma-inc", "--gamma-dec", "--rank-tol"):
        assert flag not in out


def test_bench_has_no_mode_or_seed_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    assert {"--solvers", "--seed-base", "--l0", "--C", "--eps"} <= flags
    assert not {"--mode", "--seed", "--manifest"} & flags  # rerun takes a manifest
    # the specs set every mode and --seed-base every seed, so --seed is refused
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--problem", "QUADRANK:d=6", "--seed", "3", "--out", str(tmp_path)])
    assert exc.value.code == 1


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("# solver settings\nsigma0 = 4.0\neps = 1e-7\nmax_iter = 500\n")
    out_dir = tmp_path / "out"
    code = main([
        "solve", "--problem", "QUADRANK:d=6:rank=6", "--mode", "arc",
        "--config", str(cfg), "--eps", "1e-9", "--out", str(out_dir),
    ])
    assert code == 0
    summary = json.loads((out_dir / "summary_QUADRANK_d6_rank6.json").read_text())
    assert summary["config"]["sigma0"] == 4.0       # from the file
    assert summary["config"]["epsilon"] == 1e-9      # flag wins over the file
    assert summary["config"]["max_iter"] == 500


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    code = main(["solve", "--problem", "QUADRANK:d=5", "--config", str(cfg)])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_bench_profile_pipeline(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main([
        "bench", "--problem", "QUADRANK:d=8:rank=8", "--problem", "l-QUADRANK:N=6:d=20",
        "--solvers", "arc,rarc-d", "--repeats", "2", "--seed-base", "1",
        "--tau", "1e-2", "--eps", "1e-7", "--out", str(out),
    ])
    assert code == 0
    assert (out / "runs.csv").exists()
    assert (out / "manifest.json").exists()

    prof_dir = tmp_path / "profiles"
    code = main(["profile", "--runs", str(out / "runs.csv"), "--tau", "1e-2",
                 "--out", str(prof_dir)])
    assert code == 0
    assert (prof_dir / "profile_arc_0.01.csv").exists()
    assert (prof_dir / "profile_rarc-d-l02_0.01.csv").exists()


def test_bench_manifest_rerun_is_bitwise_identical(tmp_path):
    out1 = tmp_path / "b1"
    main([
        "bench", "--problem", "l-QUADRANK:N=6:d=20", "--solvers", "rarc-d",
        "--repeats", "2", "--seed-base", "7", "--tau", "1e-2",
        "--eps", "1e-7", "--out", str(out1),
    ])
    out2 = tmp_path / "b2"
    code = main(["rerun", "--manifest", str(out1 / "manifest.json"), "--out", str(out2)])
    assert code == 0
    assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def test_bench_lowrank_suite(tmp_path):
    out = tmp_path / "b"
    code = main([
        "bench", "--suite", "lowrank", "--d", "40", "--N", "4", "--repeats", "1",
        "--solvers", "rarc-d", "--out", str(out),
    ])
    assert code == 0
    with open(out / "runs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = [f"l-{name}:N=4:d=40:seed=0" for name in cli.LOWRANK_SUITE]
    assert sorted({row["problem_id"] for row in rows}) == expected
    assert len(rows) == len(expected) * 2  # one row per tolerance


def test_bench_growth_constants_get_their_own_ids(tmp_path):
    out = tmp_path / "b"
    code = main([
        "bench", "--problem", "l-ARWHEAD:N=10:d=40", "--solvers", "rarc-d:C=1,rarc-d:C=2",
        "--repeats", "1", "--out", str(out),
    ])
    assert code == 0
    with open(out / "runs.csv", newline="") as fh:
        ids = {row["solver_id"] for row in csv.DictReader(fh)}
    assert ids == {"rarc-d-l02", "rarc-d-l02-C2"}


def test_bench_fixed_sketch_solver_spec(tmp_path):
    out = tmp_path / "b"
    code = main([
        "bench", "--problem", "l-QUADRANK:N=6:d=20", "--solvers", "rarc:l=7",
        "--repeats", "1", "--seed-base", "0", "--tau", "1e-2",
        "--eps", "1e-7", "--out", str(out),
    ])
    assert code == 0
    assert "rarc-l7" in (out / "runs.csv").read_text()


@pytest.mark.parametrize(
    "spec",
    ["rarc:l=abc", "rarc-d:l0=2.5", "rarc-d:C=", "rarc:mode=arc", "rarc:kappa=1", "rarc-d:seed=3"],
)
def test_bench_non_integer_solver_parameter(tmp_path, capsys, spec):
    code = main([
        "bench", "--problem", "l-ARWHEAD:N=10:d=20", "--solvers", spec,
        "--out", str(tmp_path / "b"),
    ])
    assert code == 1
    assert spec in capsys.readouterr().err


def test_solver_spec_parts_are_settings(tmp_path):
    out = tmp_path / "b"
    code = main([
        "bench", "--problem", "l-ARWHEAD:N=10:d=20", "--solvers", "rarc-d:l0=3:C=2",
        "--repeats", "1", "--out", str(out),
    ])
    assert code == 0
    config = json.loads((out / "manifest.json").read_text())["solver_configs"][0]
    assert (config["l0"], config["growth_c"]) == (3, 2)


def test_embed_check(capsys):
    code = main([
        "embed-check", "--l", "60", "--d", "150", "--rank", "3",
        "--eps", "0.5", "--trials", "20", "--samples", "50", "--seed", "0",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "pass rate" in out


def test_new_setting_flags_reach_the_config(tmp_path):
    code = main([
        "solve", "--problem", "QUADRANK:d=6:rank=6", "--mode", "arc",
        "--sigma0", "4.0", "--redraw", "every-iteration", "--out", str(tmp_path),
    ])
    assert code == 0
    config = json.loads((tmp_path / "summary_QUADRANK_d6_rank6.json").read_text())["config"]
    assert config["sigma0"] == 4.0
    assert config["redraw_policy"] == "every-iteration"


def test_config_file_bad_value(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("eps = 1e-7\nmax_iter = abc\n")
    code = main(["solve", "--problem", "QUADRANK:d=5", "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{cfg}:2" in err and "max_iter" in err


def _written_manifest(tmp_path):
    out = tmp_path / "b1"
    main([
        "bench", "--problem", "QUADRANK:d=6:rank=6", "--solvers", "arc",
        "--repeats", "1", "--tau", "1e-2", "--eps", "1e-7", "--out", str(out),
    ])
    path = out / "manifest.json"
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("workers", [1, 2])
def test_manifest_records_the_blas_thread_settings(tmp_path, monkeypatch, workers):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    out = tmp_path / "b"
    main([
        "bench", "--problem", "QUADRANK:d=6:rank=6", "--solvers", "arc", "--repeats", "1",
        "--workers", str(workers), "--out", str(out),
    ])
    threads = json.loads((out / "manifest.json").read_text())["threads"]
    assert threads["cpu_count"] == os.cpu_count()
    # a parallel grid's workers run one BLAS thread each
    assert threads["OPENBLAS_NUM_THREADS"] == (None if workers == 1 else "1")
    # OpenBLAS's live count, not the variable: rounding above the draw-ahead gate depends on it
    assert threads["blas_threads"] == (_lapack.blas_threads() if workers == 1 else 1)


def test_manifest_rerun_notes_other_thread_settings(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    path, _ = _written_manifest(tmp_path)
    rerun = ["rerun", "--manifest", str(path), "--out", str(tmp_path / "b2")]
    capsys.readouterr()
    assert main(rerun) == 0
    assert "note" not in capsys.readouterr().err
    # the rerun uses one BLAS thread per worker, the manifest recorded the default
    assert main([*rerun, "--workers", "2"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("rsarc: note:") and "'OPENBLAS_NUM_THREADS': None" in err
    assert "'OPENBLAS_NUM_THREADS': '1'" in err
    # a manifest written before the live count was recorded gets the note too
    manifest = json.loads(path.read_text())
    del manifest["threads"]["blas_threads"]
    path.write_text(json.dumps(manifest))
    assert main(rerun) == 0
    assert "rsarc: note:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--problem", "QUADRANK:d=8"],
        ["--suite", "lowrank", "--d", "40", "--N", "4"],
        ["--solvers", "arc"],
        ["--repeats", "5"],  # the default, given explicitly
        ["--seed-base", "1", "--tau", "0.1", "--metric", "runtime"],
        ["--eps", "0.5", "--config", "{config}"],
        ["--sigma0", "2", "--max-iter", "3", "--l0", "1", "--C", "2", "--redraw", "every-iteration"],
    ],
)
def test_manifest_rerun_refuses_the_grid_flags_it_would_ignore(tmp_path, capsys, flags):
    # rerun takes the whole grid from the manifest, so it has no grid or solver flag
    path, _ = _written_manifest(tmp_path)
    config = tmp_path / "solver.cfg"
    config.write_text("sigma0 = 3.0\n")
    out = tmp_path / "b2"
    argv = ["rerun", "--manifest", str(path), *flags, "--workers", "1", "--traces", "--out", str(out)]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([arg.format(config=config) for arg in argv])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    named = [flag for flag in flags if flag.startswith("--")]
    assert "unrecognized arguments" in err and all(flag in err for flag in named), err
    assert not out.exists()


def test_solve_exits_3_when_lapack_fails(monkeypatch, capsys):
    # a nonzero LAPACK info ends the run as an inner failure, without a traceback
    if not _lapack.available():
        pytest.skip("numpy's OpenBLAS exports no LAPACK")
    monkeypatch.setitem(_lapack._routines(), "dstedc", failing_lapack("dstedc", 1))
    # arc decomposes each Krylov model's T_k by dstedc
    assert main(["solve", "--problem", "l-ENGVAL1:N=150:d=300", "--mode", "arc"]) == 3
    captured = capsys.readouterr()
    assert "status=InnerFailure" in captured.out and "Traceback" not in captured.err


def test_manifest_unknown_solver_key(tmp_path, capsys):
    path, manifest = _written_manifest(tmp_path)
    manifest["solver_configs"][0]["kappa_t"] = 0.1
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["rerun", "--manifest", str(path), "--out", str(tmp_path / "b2")]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "kappa_t" in err


def test_manifest_refuses_a_repeated_key(tmp_path, capsys):
    # json.load would keep the last of two values; the rerun would run sigma0 = 3
    path, manifest = _written_manifest(tmp_path)
    manifest["solver_configs"][0]["sigma0"] = "SIGMA"
    path.write_text(json.dumps(manifest).replace('"sigma0": "SIGMA"', '"sigma0": 2, "sigma0": 3'))
    capsys.readouterr()
    assert main(["rerun", "--manifest", str(path), "--out", str(tmp_path / "b2")]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "key(s) ['sigma0'] repeated" in err
    assert not (tmp_path / "b2").exists()


def test_manifest_missing_key(tmp_path, capsys):
    # every manifest bench writes records the metric and the thread settings
    path, manifest = _written_manifest(tmp_path)
    for key in ("repeats", "metric", "threads"):
        path.write_text(json.dumps({k: v for k, v in manifest.items() if k != key}))
        capsys.readouterr()
        assert main(["rerun", "--manifest", str(path), "--out", str(tmp_path / "b2")]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and f"missing manifest key(s) ['{key}']" in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("repeats", "2", "repeats = '2'"),
        ("seed_base", 1.5, "seed_base = 1.5"),
        ("problems", "QUADRANK:d=6:rank=6", "problems = 'QUADRANK:d=6:rank=6'"),
        ("taus", [0.01, "tight"], "taus[1] = 'tight'"),
    ],
)
def test_manifest_value_of_the_wrong_type(tmp_path, capsys, key, value, message):
    path, manifest = _written_manifest(tmp_path)
    manifest[key] = value
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["rerun", "--manifest", str(path), "--out", str(tmp_path / "b2")]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and message in err
    assert not (tmp_path / "b2").exists()


_SOLVE = ["solve", "--problem", "l-ARWHEAD:N=10:d=40"]
_BENCH = ["bench", "--problem", "QUADRANK:d=6", "--repeats", "1", "--out", "{out}"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["embed-check", "--l", "5", "--d", "10", "--rank", "2", "--trials", "0"], "--trials"),
        (["embed-check", "--l", "5", "--d", "10", "--rank", "-1"], "--rank"),
        (["embed-check", "--l", "5", "--d", "10", "--rank", "20"], "need --rank <= --d = 10, got 20"),
        (["profile", "--runs", "{runs}", "--tau", "0.3", "--out", "{out}"], "tau 0.3"),
        (["profile", "--runs", "{profile}", "--out", "{out}"], "problem_id"),
        (["profile", "--runs", "{bad_row}", "--out", "{out}"], "bad_row.csv:3"),
        (["embed-check", "--l", "5", "--d", "10", "--rank", "2", "--seed", "-1"], "--seed"),
        (["solve", "--problem", "l-ARWHEAD:N=10:d=40:seed=-1"], "l-ARWHEAD:N=10:d=40:seed=-1"),
        ([*_SOLVE, "--seed", "-1"], "seed"),
        ([*_SOLVE, "--sigma0", "nan"], "sigma0"),
        (["rerun", "--manifest", "{old_manifest}", "--out", "{out}"], "unknown config key 'max_inner'"),
        ([*_SOLVE, "--config", "{old_config}"], "unknown config key 'inner_tol'"),
        ([*_SOLVE, "--config", "{theta_config}"], "unknown config key 'theta'"),
        (["bench", "--problem", "QUADRANK:d=6", "--seed-base", "-1", "--out", "{out}"], "seed_base"),
        (["bench", "--problem", "QUADRANK:d=6", "--repeats", "0", "--out", "{out}"], "repeats"),
        (["bench", "--problem", "QUADRANK:d=6", "--workers", "-3", "--out", "{out}"], "workers"),
        ([*_SOLVE, "--config", "{dir}"], "Is a directory"),
        (["profile", "--runs", "{dir}", "--out", "{out}"], "Is a directory"),
        (["rerun", "--manifest", "{dir}", "--out", "{out}"], "Is a directory"),
        ([*_BENCH, "--solvers", "rarc-d:sigma0=1,rarc-d:sigma0=3"], "'rarc-d-l02'"),
        ([*_BENCH, "--tau", "2"], "got [2.0]"),
        ([*_BENCH, "--config", "{seed_config}"], "bench sets ['seed'] per run"),
        ([*_BENCH, "--config", "{mode_config}"], "bench sets ['mode'] per run"),
        ([*_BENCH, "--solvers", "rarc-d:C=2:C=3"], "'C' sets growth_c again"),
        ([*_BENCH, "--solvers", "rarc-d:growth_c=2:C=3"], "'C' sets growth_c again"),
        ([*_BENCH, "--solvers", "rarc:l=4:l0=5"], "'l0' sets l0 again"),
        ([*_SOLVE, "--config", "{twice_config}"], "twice_config.cfg:2: 'sigma0' sets sigma0 again"),
        ([*_SOLVE, "--config", "{eps_config}"], "eps_config.cfg:2: 'epsilon' sets epsilon again"),
        ([*_SOLVE, "--config", "{redraw_config}"], "redraw_config.cfg:3: 'redraw' sets redraw_policy again"),
        (["rerun", "--manifest", "{alias_manifest}", "--out", "{out}"], "solver_configs[0]: 'C' sets growth_c again"),
        (["profile", "--runs", "{twice_row}", "--out", "{out}"],
         "twice_row.csv:4: run ('QUADRANK:d=6', 'arc', 0) has a second row at tau 0.01"),
        (["profile", "--runs", "{no_rows}", "--out", "{out}"], "no_rows.csv: no runs to profile"),
        (["rerun", "--manifest", "{no_tau_manifest}", "--out", "{out}"], "need one or more taus"),
    ],
    ids=[
        "no-trials", "negative-rank", "rank-above-d", "unknown-tau", "not-a-runs-csv", "malformed-row",
        "embed-negative-seed", "selector-negative-seed", "solve-negative-seed", "nan-sigma0",
        "no-inner-evaluations", "negative-inner-tol", "theta-config",
        "negative-seed-base", "no-repeats", "negative-workers", "config-is-a-directory",
        "runs-is-a-directory", "manifest-is-a-directory", "shared-solver-id", "tau-above-one",
        "bench-config-seed", "bench-config-mode", "spec-key-twice", "spec-name-and-alias", "spec-l-and-l0",
        "config-key-twice", "config-alias-and-name", "config-name-and-alias", "manifest-name-and-alias",
        "repeated-runs-row", "runs-without-rows", "manifest-without-taus",
    ],
)
def test_bad_input_ends_in_a_typed_error(tmp_path, capsys, argv, message):
    paths = {name: tmp_path / f"{name}.csv" for name in ("runs", "profile", "bad_row", "twice_row", "no_rows")}
    write_runs_csv(
        [BenchmarkRun("QUADRANK:d=6", "arc", 0, 0, {1e-2: 1.0, 1e-5: 2.0}, "GradientTolReached")],
        paths["runs"],
    )
    paths["profile"].write_text("alpha,pi\n0.0,1.0\n")
    # files that still set inner_tol, max_inner or theta, which are no longer settings
    paths["old_config"] = tmp_path / "old.cfg"
    paths["old_config"].write_text("inner_tol = -1\n")
    paths["theta_config"] = tmp_path / "theta.cfg"
    paths["theta_config"].write_text("theta = 0.01\n")
    # bench's --solvers heads set every mode and --seed-base every seed; a field
    # set twice, under its name or an alias, is refused, not overwritten
    for key, lines in (("seed_config", "seed = 5\n"), ("mode_config", "sigma0 = 2.0\nmode = arc\n"),
                       ("twice_config", "sigma0 = 2\nsigma0 = 3\n"), ("eps_config", "eps = 1e-3\nepsilon = 1e-4\n"),
                       ("redraw_config", "redraw_policy = on-success\n\nredraw = every-iteration\n")):
        paths[key] = tmp_path / f"{key}.cfg"
        paths[key].write_text(lines)
    for key, config, taus in (("old_manifest", {"mode": "arc", "max_inner": 0}, [0.01]),
                              ("alias_manifest", {"mode": "rarc-d", "growth_c": 2, "C": 3}, [0.01]),
                              ("no_tau_manifest", {"mode": "arc"}, [])):
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps({
            "problems": ["QUADRANK:d=6"], "solver_configs": [config],
            "repeats": 1, "seed_base": 0, "taus": taus, "metric": "rel-hessians", "threads": {},
        }))
    header, first, second = paths["runs"].read_text().splitlines()
    paths["bad_row"].write_text("\n".join([header, first, second.replace(",0,0,", ",0,x,")]))
    paths["twice_row"].write_text("\n".join([header, first, second, first]))
    paths["no_rows"].write_text(header + "\n")
    code = main([arg.format(out=tmp_path / "out", dir=tmp_path, **paths) for arg in argv])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # refused input leaves no output directory
