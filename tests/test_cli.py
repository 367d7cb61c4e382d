"""End-to-end checks of the experiment harness: config validation, byte
determinism of outputs, and the wiring of each subcommand."""

import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from genprior import (RngStream, cli, csgm_baseline, dpr_baseline, forward,
                      load_weights, save_weights)
from genprior.cli import SOLVERS_FOR_PROBLEM, ConfigError, load_config, main
from genprior.numerics import _check_orthonormal, blas_threads
from genprior.projection import ProjectionConfig
from genprior.solvers import _Cell, _thresh
from conftest import identity_generator

LIN_CONFIG = """\
# desk-scale planted linear recovery
problem = linear
latent_dim = 8
hidden_dims = 64
output_dim = 128
activation = relu
weight_seed = 7
m = 64
eta = 0.7
outer_steps = 15
inner_steps = 200
inner_rate = 0.05
seed = 3
"""


@pytest.fixture
def lin_config(tmp_path):
    path = tmp_path / "lin.txt"
    path.write_text(LIN_CONFIG)
    return path


def run_cli(*argv):
    return main(list(argv))


def run_python(code, *args, **env):
    """stdout of ``python -c code *args`` in a fresh interpreter that imports
    this genprior, with the given extra environment."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, *args], check=True,
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src, **env})
    return proc.stdout


def test_cli_import_starts_no_process_pool_machinery():
    # A sweep forks its shards with os.fork; importing multiprocessing or
    # concurrent.futures would add to every command's start-up time.
    code = ("import sys, genprior.cli; print([m for m in ('multiprocessing', "
            "'concurrent.futures') if m in sys.modules])")
    assert run_python(code).strip() == "[]"


# --- config parsing -----------------------------------------------------


def test_unknown_key_rejected_with_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("problem = linear\nwibble = 3\n")
    with pytest.raises(ConfigError, match=r"bad.txt:2: unknown key 'wibble'"):
        load_config(path)


def test_bad_value_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("m = sixty\n")
    with pytest.raises(ConfigError, match=r"bad.txt:1"):
        load_config(path)


def test_solver_problem_compatibility_checked(tmp_path):
    # With solvers set, solver went unchecked.  On the linear problem eps_pgd
    # ran exactly what pgd runs, and wrote the same numbers on its rows.
    path = tmp_path / "bad.txt"
    for text in ("problem = phase\nsolver = csgm\n",
                 "problem = phase\nsolver = pgd\nsolvers = phase_pgd\n",
                 "problem = linear\nsolvers = pgd,eps_pgd\n"):
        path.write_text(text)
        with pytest.raises(ConfigError,
                           match="solver '(csgm|pgd|eps_pgd)' does not apply"):
            load_config(path)


@pytest.mark.parametrize("command, output, line", [
    ("solve", "summary.txt", " solver=csgm "),
    ("diagnose", "diagnostics.csv", "\nsolver,csgm\n")], ids=["solve", "diagnose"])
def test_solve_and_diagnose_run_solver_over_solvers(lin_config, tmp_path, command,
                                                   output, line):
    # solver is one solve's solver, as m is one solve's m and m_list a
    # sweep's; with solvers set as well, the first of solvers used to run.
    assert run_cli(command, "--config", str(lin_config), "--out", str(tmp_path),
                   "--set", "solver=csgm", "--set", "solvers=pgd",
                   "--set", "csgm_steps=20", "--set", "num_pairs=10") == 0
    assert line in (tmp_path / output).read_text()


def test_overrides_and_flag_precedence(lin_config):
    cfg = load_config(lin_config, overrides=["m=32", "eta=auto"], seed=99)
    assert cfg.m == 32
    assert cfg.eta == "auto"
    assert cfg.seed == 99


def test_default_out_dir_from_env(lin_config, monkeypatch):
    monkeypatch.setenv("GENPRIOR_OUT", "envdir")
    assert load_config(lin_config).out == "envdir"
    monkeypatch.delenv("GENPRIOR_OUT")
    assert load_config(lin_config).out == "out"


@pytest.mark.parametrize("problem", ["linear", "phase"])
@pytest.mark.parametrize("solvers", [("pgd",), ("csgm",), ("pgd", "csgm")],
                         ids=["pgd", "csgm", "pgd+csgm"])
@pytest.mark.parametrize("eta", [None, "0.3", "auto"], ids=["unset", "0.3", "auto"])
def test_eta_defaults_per_problem(tmp_path, monkeypatch, eta, solvers, problem):
    # resolve_eta alone decides a cell's step size: eta as given; the
    # problem's default when eta is unset, or when auto meets only
    # baselines; and the curvature probe's 1/beta only for auto with a
    # projected solver.
    overrides = [f"problem={problem}", "latent_dim=4", "hidden_dims=16",
                 "output_dim=32", "m=16", "num_pairs=40"]
    cfg = load_config(overrides=overrides + ([] if eta is None else [f"eta={eta}"]),
                      out=str(tmp_path))
    net = cli.build_generator(cfg)
    obj, _ = cli.build_instance(cfg, net, cfg.m, 5)
    betas = []
    probe = cli.diag.rsc_rss_estimate

    def counted_probe(*args):
        est = probe(*args)
        betas.append(est.beta)
        return est

    monkeypatch.setattr(cli.diag, "rsc_rss_estimate", counted_probe)
    got = cli.resolve_eta(cfg, obj, net, 5, solvers)
    if eta == "auto" and "pgd" in solvers:
        assert len(betas) == 1 and got == 1.0 / (0.5 * betas[0])
    else:
        assert betas == []
        assert got == {"0.3": 0.3}.get(eta, 0.9 if problem == "phase" else 0.5)


@pytest.mark.parametrize("key, raw", [
    ("eta", "nan"),
    ("inner_rate", "nan"),
    ("noise_std", "nan"),
    ("weight_scale", "inf"),
    ("csgm_rate", "-0.01"),
    ("dpr_rate", "0"),
    ("csgm_steps", "0"),
    ("dpr_steps", "0"),
    ("phase_init_count", "0"),
    ("m_list", "20,20"),
    ("seeds", "1,2,1"),
    ("solvers", "pgd,csgm,pgd"),
    ("seed", "-1"),
    ("weight_seed", "-1"),
    ("seeds", "0,-1"),
    ("phase_delta0", "-0.1"),
])
def test_config_rejects_values_that_make_a_sweep_silently_wrong(lin_config, key,
                                                                raw):
    # Each of these used to load: nan step sizes held every step, a nan
    # noise level meant no noise, a negative rate ran gradient ascent, a
    # repeated sweep entry wrote its rows twice, a negative seed failed in
    # numpy's seed sequence and a negative phase_delta0 was a start radius
    # below zero.
    with pytest.raises(ConfigError, match=key):
        load_config(lin_config, overrides=[f"{key}={raw}"])


def test_config_refuses_a_non_integer_count():
    # load_config truncated seed 2.5 to 2 and workers 1.7 to 1, and an int
    # key or int-tuple entry holding a float loaded: m=50.0 then failed deep
    # in RngStream.
    for key, value in (("seed", 2.5), ("workers", 1.7)):
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            load_config(None, **{key: value})
    for key, value in (("m", 2.5), ("m", 50.0), ("hidden_dims", (200.5,)),
                       ("seeds", (1, 2.0))):
        with pytest.raises(ConfigError, match=f"{key}( entries)? must be an integer"):
            cli.ExperimentConfig(**{key: value})


@pytest.mark.parametrize("build, match", [
    (lambda: cli.ExperimentConfig(inner_rate="0.1"), "^inner_rate must be"),
    (lambda: cli.ExperimentConfig(noise_std=None), "^noise_std must be"),
    (lambda: cli.ExperimentConfig(weight_scale="2"), "^weight_scale must be"),
    (lambda: cli.ExperimentConfig(eta="0.3"), "^eta must be"),
    (lambda: replace(load_config(None), m=0), "^need m >= 1, got 0$"),
], ids=["inner_rate", "noise_std", "weight_scale", "eta", "replace"])
def test_a_config_checks_itself_however_it_is_built(build, match):
    # Only load_config used to check a config: each of these was built, a
    # string inner_rate then failed inside ProjectionConfig once the
    # instance was built, a None noise_std inside build_instance, and a
    # string eta ran.
    with pytest.raises(ConfigError, match=match):
        build()


def test_the_config_and_the_library_refuse_a_real_with_one_message():
    # The config used to write its own: "inner_rate must be finite, got nan".
    with pytest.raises(ValueError) as lib:
        ProjectionConfig(inner_rate=float("nan"))
    with pytest.raises(ConfigError) as cfg:
        load_config(None, ["inner_rate=nan"])
    assert (str(cfg.value) == str(lib.value)
            == "inner_rate must be positive and finite, got nan")


def test_phase_with_noise_is_rejected_at_the_config_boundary():
    # Noise added to |Ax| makes negative magnitudes, which phase_pgd
    # rejects: every such solve used to fail deep in the solver.
    with pytest.raises(ConfigError, match="noise_std must be 0 for problem 'phase'"):
        load_config(None, ["problem=phase", "noise_std=0.5"])
    assert load_config(None, ["problem=phase"]).noise_std == 0.0
    assert load_config(None, ["problem=linear", "noise_std=0.5"]).noise_std == 0.5


def test_mismatch_sparsity_above_output_dim_is_rejected(tmp_path, monkeypatch,
                                                        capsys):
    # It used to fail in build_instance with numpy's broadcast error.  With
    # weights_path the signal length comes from the file, so every command
    # checks the rule once the generator has loaded, before any instance.
    def no_instance(*args):
        raise AssertionError("an instance was built")

    monkeypatch.setattr(cli, "build_instance", no_instance)
    wpath = tmp_path / "id.gpw"
    save_weights(identity_generator(16), wpath)
    for command in ("solve", "sweep", "diagnose"):
        for keys, sparsity, n in ((["output_dim=64"], 2000, 64),
                                  ([f"weights_path={wpath}"], 20, 16)):
            sets = [a for k in ("problem=mismatch", f"sparsity={sparsity}", *keys)
                    for a in ("--set", k)]
            assert run_cli(command, "--out", str(tmp_path / "o"), *sets) == 1
            assert (f"error: sparsity ({sparsity}) must be <= output_dim ({n})"
                    in capsys.readouterr().err)


def test_orthonormal_m_above_output_dim_is_rejected_before_any_instance(
        tmp_path, monkeypatch, capsys):
    # With weights_path the signal length comes from the file: the rule is
    # checked with the sparsity rule, once the generator has loaded.  It
    # checks the m each command builds: solve and diagnose use m even with
    # m_list set (an m = 17 used to pass, and solve ran a 16-row matrix
    # while its summary read m=17), and a sweep uses m_list over m.
    def no_instance(*args):
        raise AssertionError("an instance was built")

    monkeypatch.setattr(cli, "build_instance", no_instance)
    wpath = tmp_path / "id.gpw"
    save_weights(identity_generator(16), wpath)
    for command in ("solve", "sweep", "diagnose"):
        for m_keys in (["m=17"], ["m_list=8,17"], ["m=17", "m_list=8"]):
            if command == "sweep" and m_keys == ["m=17", "m_list=8"]:
                continue  # builds only m = 8: runs, below
            sets = [a for k in (f"weights_path={wpath}", "matrix_kind=orthonormal",
                                *m_keys) for a in ("--set", k)]
            assert run_cli(command, "--out", str(tmp_path / "o"), *sets) == 1
            assert ("error: orthonormal matrix_kind needs m <= output_dim"
                    in capsys.readouterr().err)
    monkeypatch.undo()
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--out", str(out), "--set", f"weights_path={wpath}",
                   "--set", "matrix_kind=orthonormal", "--set", "m=17",
                   "--set", "m_list=8", "--set", "outer_steps=2",
                   "--set", "inner_steps=5") == 0
    assert (out / "results.csv").is_file()


def test_orthonormal_sweep_with_m_list_ignores_the_default_m(tmp_path):
    # The default m = 100 is above output_dim = 64, but a sweep with m_list
    # never builds it.
    out = tmp_path / "o"
    sets = ["latent_dim=4", "hidden_dims=16", "output_dim=64",
            "matrix_kind=orthonormal", "m_list=20,40", "seeds=1,2"]
    assert run_cli("sweep", "--out", str(out),
                   *[a for k in sets for a in ("--set", k)]) == 0
    assert (out / "results.csv").is_file()


TINY_NET = ["latent_dim=2", "hidden_dims=4", "output_dim=9", "m=5",
            "outer_steps=3", "inner_steps=5"]


@pytest.mark.parametrize("command, sets, match", [
    ("solve", ["weight_scale=1e200"], "x\\* .* shrink weight_scale or bias_scale$"),
    ("solve", ["bias_scale=1e308"], "weight_scale .* bias_scale .* not finite"),
    ("solve", ["problem=mismatch", "spike_scale=1e308"], "x\\* .* or spike_scale$"),
    ("solve", ["noise_std=1e308"], "y .* or noise_std$"),
    ("solve", ["problem=sigmoid", "weight_scale=1e150"], "x\\* .* shrink weight_scale"),
    ("solve", ["activation=tanh", "weight_scale=1e300"], "x\\* .* shrink weight_scale"),
    ("solve", ["bias_scale=3e153", "solver=pgd"], "x\\* .* shrink weight_scale"),
    ("solve", ["activation=tanh", "weight_scale=-5e153", "solver=csgm", "csgm_steps=3"],
     "x\\* .* shrink weight_scale"),
    ("solve", ["weight_scale=0", "eta=auto"], "eta=auto .* degenerate.* weight_scale"),
    ("solve", ["problem=sigmoid", "weight_scale=2.5558194924874993e-05", "eta=auto",
               "num_pairs=3"], "eta=auto .* no finite positive step size"),
    ("solve", ["problem=phase", "phase_init_strategy=oracle_perturb",
               "phase_delta0=1e308"], "phase start.* phase_delta0$"),
    ("solve", ["problem=phase", "solver=phase_pgd", "solvers=dpr",
               "phase_init_strategy=oracle_perturb", "phase_delta0=1e308"],
     "phase start.* phase_delta0$"),
    ("diagnose", ["weight_scale=0"],
     "diagnose .* estimates .* degenerate; change weight_scale or bias_scale$"),
], ids=["weights", "bias", "spikes", "noise", "sigmoid-norm", "tanh-norm",
        "bias-headroom", "tanh-headroom", "auto-eta-degenerate", "auto-eta-negative", "oracle-phase-start",
        "oracle-phase-start-of-solver",
        "diagnose-degenerate"])
def test_broken_instances_are_refused_before_any_solve(
        tmp_path, monkeypatch, command, sets, match):
    # These configs used to pass validation, then raise a RuntimeWarning in
    # the generator or the instance (the first four; without the warning
    # filter, "x / layer bias / y contains non-finite entries"), write inf
    # into every row's per-pixel and sign-invariant errors (sigmoid, tanh),
    # overflow in the trace's error columns from an x* whose squared norm
    # lay within 1.45x (bias) or 2.9x (tanh) of the float64 limit,
    # fail in the step-size probe with a bare ValueError, resolve a negative
    # step size from a probe whose quotients cancelled to noise (a bare
    # "step_size must be positive" ValueError), or overflow in phase_init
    # inside the phase group ("x0 contains non-finite entries").  A diagnose
    # of a generator that maps every latent to 0 failed in its estimates
    # with a bare "all sampled pairs are degenerate"; with one usable CPU
    # they run before its solve, in this process.
    def no_solve(*args):
        raise AssertionError("a solver group started")

    monkeypatch.setattr(cli, "_solve_group", no_solve)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    cfg = load_config(None, TINY_NET + sets, out=str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConfigError, match=match):
            getattr(cli, f"cmd_{command}")(cfg)


def readme_key_table():
    """{key: its accepts cell} of the README's config key table."""
    readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text()
    accepts = {}
    for line in readme.splitlines():
        cells = line.split("|")
        if line.startswith("| `") and len(cells) == 6:  # key, default, accepts, meaning
            accepts.update((key, cells[3]) for key in re.findall(r"`(\w+)`", cells[1]))
    return accepts


def test_readme_key_table_lists_every_key():
    # The README leaves out only the paths, booleans and the unused workers
    # key it names as unlisted; a deleted key must leave the table too.
    unlisted = {"weights_out", "out", "image", "unit_norm_latent", "workers"}
    assert (set(readme_key_table()) | unlisted
            == {f.name for f in fields(cli.ExperimentConfig)})


def test_readme_key_table_states_each_declaration():
    # The accepts column is taken from the declarations: every key with a
    # closed set of values or a bound is listed with each value, its bound
    # and "no repeats"; a float without a bound must be finite.  The unused
    # workers key is left out of the table.
    accepts = readme_key_table()
    for f in fields(cli.ExperimentConfig):
        meta, low = f.metadata, f.metadata.get("low")
        if f.name == "workers" or not (meta.get("choices") or low is not None
                                       or isinstance(f.default, float)):
            continue
        cell = accepts[f.name]
        assert all(f"`{c}`" in cell for c in meta.get("choices") or () if c), f.name
        if low is not None:
            assert f"`{'>' if meta['strict'] else '>='} {low}`" in cell, f.name
            assert isinstance(f.default, tuple) == ("entries" in cell), f.name
        elif isinstance(f.default, float):
            assert "finite" in cell, f.name
        assert bool(meta.get("unique")) <= ("no repeats" in cell), f.name


def test_cli_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("wibble = 3\n")
    assert run_cli("solve", "--config", str(path)) == 1
    assert "unknown key" in capsys.readouterr().err


# --- gen ----------------------------------------------------------------


def test_gen_round_trips_and_is_reproducible(lin_config, tmp_path):
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    assert run_cli("gen", "--config", str(lin_config), "--out", str(out1)) == 0
    assert run_cli("gen", "--config", str(lin_config), "--out", str(out2)) == 0
    w1 = (out1 / "generator.gpw").read_bytes()
    w2 = (out2 / "generator.gpw").read_bytes()
    assert w1 == w2
    net = load_weights(out1 / "generator.gpw")
    assert net.latent_dim == 8 and net.output_dim == 128 and net.depth == 2


# --- solve --------------------------------------------------------------


def test_solve_deterministic_csv_and_summary(lin_config, tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("solve", "--config", str(lin_config), "--out", str(out1)) == 0
    assert run_cli("solve", "--config", str(lin_config), "--out", str(out2)) == 0
    t1 = (out1 / "trace.csv").read_bytes()
    t2 = (out2 / "trace.csv").read_bytes()
    assert t1 == t2
    header = t1.decode().splitlines()[0]
    assert header == "t,F,per_pixel_error,sign_invariant_error,proj_residual,phase_flips"
    summary = (out1 / "summary.txt").read_text()
    err = float(summary.split("final_per_pixel_error=")[1].split()[0])
    assert err < 1e-4  # planted linear at m = 4 k d


def test_solve_accepts_reference_protocol_flags(lin_config, tmp_path):
    # eta=0.5, T=15, T_in=200 are the documented defaults and are accepted
    # verbatim as overrides.
    out = tmp_path / "r"
    code = run_cli("solve", "--config", str(lin_config), "--out", str(out),
                   "--set", "eta=0.5", "--set", "outer_steps=15",
                   "--set", "inner_steps=200")
    assert code == 0
    rows = (out / "trace.csv").read_text().splitlines()
    assert len(rows) == 1 + 16  # header + T+1 records


def test_solve_writes_pgm_for_square_signals(lin_config, tmp_path):
    out = tmp_path / "img"
    code = run_cli("solve", "--config", str(lin_config), "--out", str(out),
                   "--set", "output_dim=64", "--set", "m=48")
    assert code == 0
    pgm = (out / "x_hat.pgm").read_text().splitlines()
    assert pgm[0] == "P2"
    assert pgm[1] == "8 8"
    assert pgm[2] == "255"
    pixels = [int(v) for row in pgm[3:] for v in row.split()]
    assert len(pixels) == 64
    assert min(pixels) >= 0 and max(pixels) <= 255
    summary = (out / "summary.txt").read_text()
    assert "image_scale_lo=" in summary and "image_scale_hi=" in summary


def test_solve_does_not_touch_inputs_or_cwd(lin_config, tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    before = lin_config.read_bytes()
    out = tmp_path / "r"
    assert run_cli("solve", "--config", str(lin_config), "--out", str(out)) == 0
    assert lin_config.read_bytes() == before
    assert os.listdir(workdir) == []


# --- sweep --------------------------------------------------------------


def test_sweep_rows_and_medians(lin_config, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out = tmp_path / "s"
    code = run_cli("sweep", "--config", str(lin_config), "--out", str(out),
                   "--set", "m_list=20,60", "--set", "seeds=0,1,2",
                   "--set", "solvers=pgd,csgm", "--set", "csgm_steps=300")
    assert code == 0
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0] == ("m,seed,solver,final_per_pixel_error,final_objective,"
                       "alpha_fit,total_inner_updates")
    body = [r.split(",") for r in rows[1:]]
    cells = [r for r in body if r[1] != "median"]
    medians = [r for r in body if r[1] == "median"]
    assert len(cells) == 2 * 3 * 2
    assert len(medians) == 2 * 2
    # Deterministic (m, seed, solver) order.
    keys = [(int(r[0]), int(r[1]), r[2]) for r in cells]
    order = {"pgd": 0, "csgm": 1}
    assert keys == sorted(keys, key=lambda t: (t[0], t[1], order[t[2]]))
    # timings.txt: a header, then one line per cell in results.csv order,
    # each holding the wall of its solver's lockstep group within its shard.
    # The (m, seed) cells are dealt round-robin over the two shards.
    timings = (out / "timings.txt").read_text().splitlines()
    assert timings[0] == "m seed solver wall_time_s"
    lines = [t.split() for t in timings[1:]]
    assert [(int(m), int(seed), solver) for m, seed, solver, _ in lines] == keys
    shard = {(m, seed): i % 2 for i, (m, seed) in
             enumerate((m, seed) for m in (20, 60) for seed in (0, 1, 2))}
    walls = {}
    for m, seed, solver, wall in lines:
        walls.setdefault((solver, shard[int(m), int(seed)]), set()).add(wall)
    assert len(walls) == 2 * 2
    assert all(len(w) == 1 and float(next(iter(w))) > 0 for w in walls.values())


@pytest.mark.parametrize("command", ["solve", "sweep", "diagnose"])
def test_sweep_builds_each_instance_once(lin_config, tmp_path, monkeypatch,
                                         command):
    # Every solver of a sweep shares the instances and step sizes: one build
    # and one eta=auto curvature probe per (m, seed), not per solver.  A
    # solve and a diagnose build their one (m, seed) = (64, 3) cell the same
    # way; with one usable CPU, diagnose probes in this process.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    built, probed = [], []
    build, resolve = cli.build_instance, cli.resolve_eta

    def counted_build(cfg, net, m, seed, *rest):
        built.append((m, seed))
        return build(cfg, net, m, seed, *rest)

    def counted_resolve(cfg, obs, net, seed, solvers):
        probed.append(seed)
        return resolve(cfg, obs, net, seed, solvers)

    monkeypatch.setattr(cli, "build_instance", counted_build)
    monkeypatch.setattr(cli, "resolve_eta", counted_resolve)
    assert run_cli(command, "--config", str(lin_config), "--out", str(tmp_path),
                   "--set", "m_list=20,40", "--set", "seeds=0,1",
                   "--set", "solvers=pgd,csgm", "--set", "eta=auto",
                   "--set", "num_pairs=10", "--set", "inner_steps=10",
                   "--set", "csgm_steps=20") == 0
    if command == "sweep":
        assert sorted(built) == [(20, 0), (20, 1), (40, 0), (40, 1)]
        assert sorted(probed) == [0, 0, 1, 1]
    else:
        assert built == [(64, 3)]
        assert probed == [3]


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("problem, solver, eta", [("linear", "csgm", "0.5"),
                                                  ("phase", "dpr", "0.9")])
def test_eta_auto_probes_only_for_a_projected_solver(tmp_path, command, problem,
                                                     solver, eta):
    # csgm and dpr never read the step size, yet eta=auto ran the curvature
    # probe for them, and a generator that maps every latent to 0 failed it
    # ("all sampled pairs are degenerate").  With no projected solver to
    # run, auto reads as unset: the problem's default step size.
    outputs = []
    for value in ("auto", eta):
        out = tmp_path / value
        assert run_cli(command, "--out", str(out), "--set", f"problem={problem}",
                       "--set", f"solvers={solver}", "--set", "weight_scale=0",
                       "--set", f"eta={value}", "--set", "csgm_steps=3",
                       "--set", "dpr_steps=3",
                       *[a for k in TINY_NET for a in ("--set", k)]) == 0
        if command == "solve":
            outputs.append([kv for kv in (out / "summary.txt").read_text().split()
                            if not kv.startswith("wall_time_s=")])
        else:
            outputs.append((out / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_mismatch_solve_in_random_ortho_basis(tmp_path):
    # The random orthonormal basis is a canonical QR draw: a valid basis
    # other than the identity, and a rerun keeps every output byte.
    args = ["--set", "problem=mismatch", "--set", "basis=random_ortho",
            "--set", "latent_dim=4", "--set", "hidden_dims=16",
            "--set", "output_dim=36", "--set", "weight_seed=7", "--set", "m=30",
            "--set", "outer_steps=4", "--set", "inner_steps=15",
            "--set", "inner_rate=0.05", "--set", "sparsity=2", "--seed", "5"]
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        assert run_cli("solve", "--out", str(out), *args) == 0
    for name in ("trace.csv", "x_hat.pgm"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    strip = [" ".join(kv for kv in (out / "summary.txt").read_text().split()
                      if not kv.startswith("wall_time_s=")) for out in outs]
    assert strip[0] == strip[1]
    cfg = load_config(None, ["problem=mismatch", "basis=random_ortho"], seed=5)
    basis = cli.build_basis(cfg, 36)
    assert np.array_equal(_check_orthonormal(basis), basis)
    assert not np.allclose(basis, np.eye(36))
    assert np.array_equal(basis, cli.build_basis(cfg, 36))
    # No other problem reads a basis, so none is built for it.
    linear = load_config(None, ["basis=random_ortho"], seed=5)
    assert cli.build_basis(linear, 36) is None


def test_build_instance_without_a_basis_builds_the_commands_basis(lin_config):
    # The four-argument call builds the mismatch basis itself; it must plant
    # the instance that a command builds with its own basis.
    cfg = load_config(lin_config, ["problem=mismatch", "basis=random_ortho",
                                   "sparsity=3"])
    net = cli.build_generator(cfg)
    (alone, alone_x), (given, given_x) = (
        cli.build_instance(cfg, net, cfg.m, cfg.seed, *basis)
        for basis in ((), (cli.build_basis(cfg, net.output_dim),)))
    assert np.array_equal(alone.y, given.y)
    assert np.array_equal(alone_x, given_x)
    assert np.array_equal(alone.model.matrix, given.model.matrix)
    _, plain_x = cli.build_instance(load_config(lin_config, ["problem=mismatch",
                                                             "sparsity=3"]),
                                    net, cfg.m, cfg.seed)
    assert not np.array_equal(alone_x, plain_x)


def test_identity_mismatch_instance_has_the_bytes_of_the_eye():
    # The identity basis is None: x* adds the spike coefficients directly,
    # with the bits of their product with np.eye(n).
    cfg = load_config(None, ["problem=mismatch"])
    net = cli.build_generator(cfg)
    n = net.output_dim
    assert cli.build_basis(cfg, n) is None
    _, x_star = cli.build_instance(cfg, net, cfg.m, cfg.seed)
    root = RngStream(cfg.seed)
    x_base = forward(net, root.derive(0).standard_normal(net.latent_dim))
    spike_rng = root.derive(2)
    support = spike_rng.permutation(n)[: cfg.sparsity]
    coeffs = np.zeros(n)
    coeffs[support] = (cfg.spike_scale * np.linalg.norm(x_base) / np.sqrt(n)
                       * np.where(spike_rng.standard_normal(cfg.sparsity) >= 0,
                                  1.0, -1.0))
    assert x_star.tobytes() == (x_base + np.eye(n) @ coeffs).tobytes()


def test_identity_mismatch_setup_allocates_no_basis_matrix():
    # The basis, the instance and one threshold of a default mismatch
    # command hold no n x n array (4.9 MB at n = 784); with np.eye(784) as
    # the basis, this peaked at 6.2 MB.
    cfg = load_config(None, ["problem=mismatch"])
    net = cli.build_generator(cfg)
    n = net.output_dim
    tracemalloc.start()
    try:
        basis = cli.build_basis(cfg, n)
        _, x_star = cli.build_instance(cfg, net, cfg.m, cfg.seed, basis)
        _thresh(x_star, basis, cfg.sparsity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 2


def test_unit_norm_latent_plants_a_unit_latent(lin_config):
    cfg = load_config(lin_config, ["unit_norm_latent=true"])
    net = cli.build_generator(cfg)
    _, x_star = cli.build_instance(cfg, net, cfg.m, cfg.seed)
    # z* is the instance stream's first draw, scaled to unit norm.
    z = RngStream(cfg.seed).derive(0).standard_normal(net.latent_dim)
    assert abs(np.linalg.norm(z) - 1.0) > 1e-3
    assert np.array_equal(x_star, forward(net, z / np.linalg.norm(z)))
    _, plain_x = cli.build_instance(load_config(lin_config), net, cfg.m, cfg.seed)
    assert np.array_equal(plain_x, forward(net, z))


@pytest.mark.parametrize("problem, solver", [("linear", "csgm"), ("phase", "dpr")])
def test_cli_baseline_starts_where_the_public_baseline_starts(problem, solver):
    # The CLI draws a baseline cell's start latent from the cell's stream
    # 905; the public baseline given that stream draws the same start, so
    # every trace column has the same bytes.  A start from any other stream
    # moves the first record.
    cfg = load_config(None, TINY_NET + [f"problem={problem}", f"solver={solver}",
                                        "csgm_steps=40", "dpr_steps=40"], seed=12)
    net = cli.build_generator(cfg)
    obj, x_star = cli.build_instance(cfg, net, cfg.m, cfg.seed)
    cell = _Cell(obj, cli.resolve_eta(cfg, obj, net, cfg.seed, (solver,)), cfg.seed,
                 x_star=x_star)
    (row,) = cli._run_group(cfg, net, None, solver, [cell], traced=True)
    baseline, steps, rate = ((csgm_baseline, cfg.csgm_steps, cfg.csgm_rate)
                             if solver == "csgm" else
                             (dpr_baseline, cfg.dpr_steps, cfg.dpr_rate))

    def public(rng):
        return baseline(obj.y, obj.model.matrix, net, steps, rate, rng,
                        x_star=x_star)[1]

    ref = public(RngStream(cfg.seed, spawn_key=(905,)))
    for col in ("objective", "per_pixel_error", "sign_error", "proj_residual",
                "phase_flips", "x_hat"):
        assert getattr(row["trace"], col).tobytes() == getattr(ref, col).tobytes()
    for other in (RngStream(cfg.seed), RngStream(cfg.seed, spawn_key=(904,))):
        assert public(other).objective[0] != ref.objective[0]


@pytest.mark.parametrize("problem, solver", [("linear", "pgd"), ("phase", "dpr")])
def test_run_group_rows_hold_the_summary_keys_in_order(tmp_path, problem, solver):
    # Every command writes the rows _run_group returns: summary.txt is
    # `problem` and then a row's keys in the row's order.  Only a traced row
    # holds its trace, so a sweep never keeps its cells' traces.
    sets = TINY_NET + [f"problem={problem}", f"solver={solver}", "dpr_steps=20",
                       "image=false"]
    assert run_cli("solve", "--out", str(tmp_path), "--seed", "3",
                   *[a for s in sets for a in ("--set", s)]) == 0
    summary = dict(kv.split("=", 1)
                   for kv in (tmp_path / "summary.txt").read_text().split())
    assert list(summary) == ["problem", "solver", "m", "seed", "eta", "final_objective",
                             "final_per_pixel_error", "alpha_fit",
                             "total_inner_updates", "wall_time_s"]
    cfg = load_config(None, sets, seed=3)
    net = cli.build_generator(cfg)
    cells = []
    for seed in (3, 4):
        obj, x_star = cli.build_instance(cfg, net, cfg.m, seed)
        cells.append(_Cell(obj, cli.resolve_eta(cfg, obj, net, seed, (solver,)), seed,
                           x_star=x_star))
    rows = cli._run_group(cfg, net, None, solver, cells)
    (traced,) = cli._run_group(cfg, net, None, solver, cells[:1], traced=True)
    for row in rows:
        assert list(row) == list(summary)[1:]
    assert list(traced) == [*list(summary)[1:], "trace"]
    for key in list(summary)[1:-1]:
        assert cli._fmt(rows[0][key]) == cli._fmt(traced[key]) == summary[key]


@pytest.mark.parametrize("restarts", [1, 4])
def test_sweep_single_cell_matches_solve(lin_config, tmp_path, restarts):
    out_solve = tmp_path / "solve"
    out_sweep = tmp_path / "sweep"
    r = ["--set", f"restarts={restarts}"]
    assert run_cli("solve", "--config", str(lin_config), "--out", str(out_solve),
                   *r) == 0
    assert run_cli("sweep", "--config", str(lin_config), "--out", str(out_sweep),
                   *r) == 0
    summary = (out_solve / "summary.txt").read_text()
    err = summary.split("final_per_pixel_error=")[1].split()[0]
    obj = summary.split("final_objective=")[1].split()[0]
    row = (out_sweep / "results.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "64" and row[1] == "3" and row[2] == "pgd"
    assert row[3] == err and row[4] == obj


def test_sweep_final_error_is_the_last_record_of_a_solve_trace(lin_config, tmp_path):
    # A sweep computes no per-step errors: its final error comes from x_hat
    # and must have the bits of the last per_pixel_error a solve writes.
    sets = ["--set", "csgm_steps=300"]
    assert run_cli("sweep", "--config", str(lin_config), "--out",
                   str(tmp_path / "sweep"), "--set", "solvers=pgd,csgm", *sets) == 0
    rows = [line.split(",") for line in
            (tmp_path / "sweep" / "results.csv").read_text().splitlines()[1:]]
    for solver in ("pgd", "csgm"):
        out = tmp_path / solver
        assert run_cli("solve", "--config", str(lin_config), "--out", str(out),
                       "--set", f"solver={solver}", *sets) == 0
        last = (out / "trace.csv").read_text().splitlines()[-1].split(",")
        (row,) = [r for r in rows if r[1] == "3" and r[2] == solver]
        assert row[3] == last[2]


@pytest.mark.parametrize("restarts", [1, 4])
def test_sweep_workers_do_not_change_bytes(lin_config, tmp_path, monkeypatch,
                                           restarts):
    # Neither --workers nor the number of shards a sweep deals its 4 cells
    # into (one per usable CPU, at most one per cell) may change the bytes
    # of the projected solvers or of either latent baseline.
    for problem, solvers in (("linear", "pgd,csgm"), ("phase", "phase_pgd,dpr")):
        args = ["--set", f"problem={problem}", "--set", "m_list=20,60",
                "--set", "seeds=0,1", "--set", f"solvers={solvers}",
                "--set", "inner_steps=50", "--set", "csgm_steps=200",
                "--set", "dpr_steps=200", "--set", "phase_init_count=10",
                "--set", f"restarts={restarts}"]
        outputs = []
        for cpus, workers in ((1, 1), (1, 4), (2, 1), (3, 1), (9, 1)):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"{problem}-{cpus}-{workers}"
            assert run_cli("sweep", "--config", str(lin_config), "--out", str(out),
                           "--workers", str(workers), *args) == 0
            outputs.append((out / "results.csv").read_bytes())
        assert all(b == outputs[0] for b in outputs[1:])


def test_sweep_workers_take_turns_at_the_solver(lin_config, tmp_path, monkeypatch):
    # Guards against threads coming back within one process: two lockstep
    # solves at once trade the interpreter lock on every numpy call, so each
    # process of a sweep runs its groups one after another, whatever
    # --workers says.  Calls made in forked shard processes are not seen
    # here.
    solve, guard = cli._solve_group, threading.Lock()
    active, most = [0], [0]

    def counted(*args):
        with guard:
            active[0] += 1
            most[0] = max(most[0], active[0])
        time.sleep(0.02)  # room for another thread to enter, were it let in
        try:
            return solve(*args)
        finally:
            with guard:
                active[0] -= 1

    monkeypatch.setattr(cli, "_solve_group", counted)
    assert run_cli("sweep", "--config", str(lin_config), "--out", str(tmp_path),
                   "--workers", "4", "--set", "m_list=20,40,60",
                   "--set", "seeds=0,1", "--set", "solvers=pgd,csgm",
                   "--set", "inner_steps=20", "--set", "csgm_steps=50") == 0
    assert most == [1]
    lines = (tmp_path / "timings.txt").read_text().splitlines()
    assert len(lines) == 1 + 3 * 2 * 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="sweeps shard by fork")
@pytest.mark.parametrize("plan, message", [
    ({1: "raise"}, "error: no luck with seed 1"),
    ({1: "exit"}, "exited with status 3 without a result"),
    ({0: "raise", 1: "sleep"}, "error: no luck with seed 0"),
])
def test_sweep_shard_failure_leaves_no_process(lin_config, tmp_path, monkeypatch,
                                               capsys, plan, message):
    # Two shards: seed 0's cell runs in this process, seed 1's in a forked
    # child.  A child's exception or death, or this process's own failure
    # while the child still runs, fails the sweep with the CLI's exit code
    # and message, and every child is reaped.
    solve = cli._solve_group

    def failing(cfg, net, basis, solver, cells):
        seed = cells[0].seed
        how = plan.get(seed)
        if how == "exit":
            os._exit(3)
        if how == "sleep":
            time.sleep(60)
        if how == "raise":
            raise ValueError(f"no luck with seed {seed}")
        return solve(cfg, net, basis, solver, cells)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_solve_group", failing)
    t0 = time.perf_counter()
    assert run_cli("sweep", "--config", str(lin_config), "--out", str(tmp_path),
                   "--set", "m_list=20", "--set", "seeds=0,1",
                   "--set", "inner_steps=10") == 1
    assert time.perf_counter() - t0 < 30
    assert message in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


LOCKSTEP_SEEDS = (5, 0, 3)


@pytest.mark.parametrize("problem", sorted(SOLVERS_FOR_PROBLEM))
@pytest.mark.parametrize("restarts", [1, 4])
def test_lockstep_sweep_rows_equal_one_cell_sweeps(tmp_path, problem, restarts):
    # A sweep steps the seeds of each (m, solver) column as one lockstep
    # group; every cell row must keep the bytes it has in a sweep of its
    # own seed.  eta=auto gives each cell of a group its own step size.
    args = ["--set", f"problem={problem}", "--set", "latent_dim=4",
            "--set", "hidden_dims=16", "--set", "output_dim=36",
            "--set", "weight_seed=7", "--set", "m_list=12,30",
            "--set", f"solvers={','.join(SOLVERS_FOR_PROBLEM[problem])}",
            "--set", "eta=auto", "--set", "num_pairs=20",
            "--set", "outer_steps=4", "--set", "inner_steps=15",
            "--set", "inner_rate=0.05", "--set", f"restarts={restarts}",
            "--set", "csgm_steps=40", "--set", "dpr_steps=40",
            "--set", "phase_init_count=5", "--set", "sparsity=2"]

    def cell_rows(out):
        lines = (out / "results.csv").read_text().splitlines()[1:]
        return [ln for ln in lines if ln.split(",")[1] != "median"]

    group = tmp_path / "group"
    assert run_cli("sweep", "--out", str(group), "--set",
                   f"seeds={','.join(map(str, LOCKSTEP_SEEDS))}", *args) == 0
    alone = {}
    for seed in LOCKSTEP_SEEDS:
        out = tmp_path / f"seed{seed}"
        assert run_cli("sweep", "--out", str(out), "--set", f"seeds={seed}",
                       *args) == 0
        for row in cell_rows(out):
            alone[tuple(row.split(",")[:3])] = row
    rows = cell_rows(group)
    assert len(rows) == len(alone) == 2 * len(LOCKSTEP_SEEDS) * len(
        SOLVERS_FOR_PROBLEM[problem])
    for row in rows:
        assert row == alone[tuple(row.split(",")[:3])]


# --- diagnose -----------------------------------------------------------


def test_diagnose_orthonormal_identity_reports_unit_constants(tmp_path):
    net = identity_generator(16)
    wpath = tmp_path / "id.gpw"
    save_weights(net, wpath)
    cfgpath = tmp_path / "diag.txt"
    cfgpath.write_text(
        f"problem = linear\nweights_path = {wpath}\nm = 16\n"
        "matrix_kind = orthonormal\nnum_pairs = 50\n"
        "outer_steps = 2\ninner_steps = 1\ninner_rate = 0.5\n"
        "eta = 0.75\nimage = false\n")
    out = tmp_path / "d"
    assert run_cli("diagnose", "--config", str(cfgpath), "--out", str(out)) == 0
    report = dict(
        line.split(",", 1) for line in
        (out / "diagnostics.csv").read_text().splitlines()[1:])
    assert float(report["gamma_hat"]) == pytest.approx(1.0, abs=1e-10)
    assert float(report["rho_hat"]) == pytest.approx(1.0, abs=1e-10)
    assert report["eta_in_window"] == "True"


def test_diagnose_estimates_curvature_once_per_stream(lin_config, tmp_path,
                                                      monkeypatch):
    # eta=auto runs one estimate for the step size and one for the report;
    # the solve reuses the step size instead of estimating it again.  The
    # calls are logged to a file, since with two usable CPUs the step size
    # is resolved in a forked child.
    log = tmp_path / "calls"
    estimate = cli.diag.rsc_rss_estimate

    def counted(*args, **kwargs):
        with open(log, "a") as f:
            f.write(f"{args[2]}\n")
        return estimate(*args, **kwargs)

    monkeypatch.setattr(cli.diag, "rsc_rss_estimate", counted)
    for cpus in (1, 2):
        log.write_text("")
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        assert run_cli("diagnose", "--config", str(lin_config), "--out",
                       str(tmp_path / "d"), "--set", "eta=auto",
                       "--set", "num_pairs=50", "--set", "outer_steps=2") == 0
        assert log.read_text().split() == ["50", "50"]


def test_diagnose_reproducible(lin_config, tmp_path):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    args = ["--set", "num_pairs=50", "--set", "outer_steps=5"]
    assert run_cli("diagnose", "--config", str(lin_config), "--out", str(out1),
                   *args) == 0
    assert run_cli("diagnose", "--config", str(lin_config), "--out", str(out2),
                   *args) == 0
    assert (out1 / "diagnostics.csv").read_bytes() == \
        (out2 / "diagnostics.csv").read_bytes()


DIAGNOSE_AND_INCOHERENCE = """
import sys
import numpy as np
from genprior import RngStream, cli, diagnostics
assert cli.main(["diagnose", "--set", "problem=linear", "--set", "eta=auto",
                 "--set", "num_pairs=2000", "--set", "outer_steps=2",
                 "--set", "inner_steps=10", "--seed", "201",
                 "--out", sys.argv[1]]) == 0
net = cli.build_generator(cli.load_config())
mu = diagnostics.incoherence_estimate(net, np.eye(784), 200, RngStream(1),
                                      sparsity=5)
print(f"mu={mu!r}")
"""


def test_diagnose_bytes_do_not_depend_on_blas_threads(tmp_path):
    # The sample extremes come from one matrix-vector product per pair; a
    # matrix-matrix product over all pairs sums in an order that follows
    # the BLAS thread count (gamma_hat moved in its last digits).
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        stdout = run_python(DIAGNOSE_AND_INCOHERENCE, str(out),
                            OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        outputs.append(((out / "diagnostics.csv").read_bytes(),
                        stdout.splitlines()[-1]))
    assert outputs[0] == outputs[1]


SWEEP_ON_THE_DEFAULT_NET = """
import sys
from genprior import cli
cli._usable_cpus = lambda: 1  # one shard, so the pool keeps its thread count
assert cli.main(["sweep", "--set", "m_list=100,200", "--set", "seeds=4",
                 "--set", "solvers=pgd,csgm", "--set", "outer_steps=3",
                 "--set", "inner_steps=20", "--set", "csgm_steps=50",
                 "--out", sys.argv[1]]) == 0
"""


def test_sweep_bytes_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits a matrix-vector product over its threads above
    # m * n = 9216; the default net's 784-wide layer and sensing matrices
    # at m = 100, 200 are above it.  Every product the solvers make splits
    # its rows or columns whole, so the bits do not follow the split.
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        run_python(SWEEP_ON_THE_DEFAULT_NET, str(out),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        outputs.append((out / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]


ORTHOGONAL_DRAW = """
import hashlib
from genprior import RngStream, cli
from genprior.numerics import blas_threads
q = cli._orthogonal_draw(RngStream(0, spawn_key=(902,)), 784)
print(hashlib.sha1(q.tobytes()).hexdigest(), blas_threads())
"""


def test_orthogonal_draw_does_not_depend_on_blas_threads():
    # LAPACK's blocked QR updates through a threaded GEMM, so Q's last
    # digits followed the OpenBLAS thread count; the draw pins the QR to
    # one thread and gives the process its count back.
    digests = set()
    for threads in ("1", "2"):
        digest, after = run_python(ORTHOGONAL_DRAW, OPENBLAS_NUM_THREADS=threads,
                                   OMP_NUM_THREADS=threads).split()
        assert after in (threads, "None")
        digests.add(digest)
    assert len(digests) == 1


def test_diagnose_bytes_do_not_depend_on_usable_cpus(lin_config, tmp_path,
                                                     monkeypatch):
    # With two usable CPUs the solve runs in a forked child beside the
    # estimates; with one, both run in this process.  The report keeps its
    # bytes and its key order either way.
    for problem, extra in (("linear", ()), ("mismatch", ("basis=random_ortho",))):
        sets = [a for k in (f"problem={problem}", "eta=auto", "num_pairs=50",
                            "outer_steps=5", "sparsity=3", *extra)
                for a in ("--set", k)]
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"{problem}-{cpus}"
            assert run_cli("diagnose", "--config", str(lin_config), "--out",
                           str(out), *sets) == 0
            outputs.append((out / "diagnostics.csv").read_bytes())
        assert outputs[0] == outputs[1]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="diagnose forks its solve")
@pytest.mark.parametrize("how, message", [
    ("raise", "error: no luck in the solve"),
    ("exit", "exited with status 3 without a result"),
    ("sleep", "error: no luck in the estimates"),
])
def test_diagnose_child_failure_leaves_no_process(lin_config, tmp_path, monkeypatch,
                                                  capsys, how, message):
    # The solve runs in a forked child.  Its exception or death, or a
    # failure of the estimates in this process while the child still runs,
    # fails diagnose with the CLI's exit code and message; the child is
    # reaped and this process's BLAS thread count restored.
    def failing_solve(*args, **kwargs):
        if how == "exit":
            os._exit(3)
        if how == "sleep":
            time.sleep(60)
        raise ValueError("no luck in the solve")

    def failing_estimate(*args, **kwargs):
        raise ValueError("no luck in the estimates")

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_run_group", failing_solve)
    if how == "sleep":
        monkeypatch.setattr(cli.diag, "incoherence_estimate", failing_estimate)
    threads = blas_threads()
    t0 = time.perf_counter()
    assert run_cli("diagnose", "--config", str(lin_config), "--out", str(tmp_path),
                   "--set", "num_pairs=20") == 1
    assert time.perf_counter() - t0 < 30
    assert message in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert blas_threads() == threads


def test_commands_restore_the_blas_thread_count(lin_config, tmp_path, monkeypatch):
    # While a sweep's shards, or diagnose's estimates and solve, share the
    # usable CPUs, each process's BLAS pool gets its share of them: one
    # thread each of two CPUs.  The command's process gets its count back.
    original = blas_threads()
    if original is None:
        pytest.skip("numpy has no OpenBLAS loaded")
    seen = []
    solve, estimate = cli._solve_group, cli.diag.incoherence_estimate

    def solve_seen(*args):
        seen.append(blas_threads())
        return solve(*args)

    def estimate_seen(*args, **kwargs):
        seen.append(blas_threads())
        return estimate(*args, **kwargs)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_solve_group", solve_seen)
    monkeypatch.setattr(cli.diag, "incoherence_estimate", estimate_seen)
    try:
        blas_threads(2)
        for argv in (("sweep", "--set", "m_list=20", "--set", "seeds=0,1",
                      "--set", "inner_steps=10"),
                     ("diagnose", "--set", "num_pairs=20", "--set", "outer_steps=2")):
            assert run_cli(*argv, "--config", str(lin_config), "--out",
                           str(tmp_path)) == 0
            assert blas_threads() == 2
    finally:
        blas_threads(original)
    # Shard 0 of the sweep and the estimates of diagnose ran here.
    assert seen == [1, 1]


def test_schema_defaults_follow_reference_protocol(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    cfg = load_config(p)
    assert (cfg.latent_dim, cfg.hidden_dims, cfg.output_dim) == (20, (200,), 784)
    assert (cfg.outer_steps, cfg.inner_steps) == (15, 200)
    assert (cfg.csgm_steps, cfg.csgm_rate) == (3000, 0.01)
    assert cfg.dpr_steps == 2500
    assert cfg.num_pairs == 500


def test_diagnose_mismatch_reports_incoherence_factor(tmp_path):
    cfgpath = tmp_path / "mm.txt"
    cfgpath.write_text(
        "problem = mismatch\nlatent_dim = 8\nhidden_dims = 64\n"
        "output_dim = 64\nactivation = relu\nweight_seed = 7\nm = 52\n"
        "eta = 0.6\nouter_steps = 5\ninner_steps = 50\ninner_rate = 0.05\n"
        "sparsity = 5\nspike_scale = 10\nnum_pairs = 50\nseed = 1\n")
    out = tmp_path / "d"
    assert run_cli("diagnose", "--config", str(cfgpath), "--out", str(out)) == 0
    report = dict(
        line.split(",", 1) for line in
        (out / "diagnostics.csv").read_text().splitlines()[1:])
    assert 0.0 < float(report["mu_hat"]) < 1.0
    assert "predicted_mismatch_factor" in report


def test_diagnose_and_auto_eta_work_for_phase_problems(tmp_path):
    cfgpath = tmp_path / "ph.txt"
    cfgpath.write_text(
        "problem = phase\nlatent_dim = 8\nhidden_dims = 64\n"
        "output_dim = 128\nactivation = relu\nweight_seed = 7\nm = 64\n"
        "eta = auto\nouter_steps = 5\ninner_steps = 50\ninner_rate = 0.05\n"
        "num_pairs = 50\nseed = 2\nimage = false\n")
    out = tmp_path / "d"
    assert run_cli("diagnose", "--config", str(cfgpath), "--out", str(out)) == 0
    report = dict(
        line.split(",", 1) for line in
        (out / "diagnostics.csv").read_text().splitlines()[1:])
    # Unit-phase curvature probe: the phase-corrected loss is quadratic
    # with Hessian 2 A^T A whatever the phase, so alpha_hat > 0.
    assert float(report["alpha_hat"]) > 0.0
    assert float(report["eta"]) > 0.0


def diagnose_report(out, *sets):
    """diagnose's report on the tiny net of the given --set items."""
    assert run_cli("diagnose", "--out", str(out),
                   *[a for s in sets for a in ("--set", s)]) == 0
    return dict(line.split(",", 1) for line in
                (out / "diagnostics.csv").read_text().splitlines()[1:])


def test_diagnose_reports_inf_window_factor_when_eta_gamma_underflows(tmp_path):
    # gamma_hat < 1, so eta * gamma_hat rounds to 0 at the smallest eta:
    # the window factor 1/(eta gamma) - 1 is +inf, and the report is written.
    report = diagnose_report(
        tmp_path / "d", "latent_dim=2", "hidden_dims=4", "output_dim=9", "m=5",
        "outer_steps=3", "inner_steps=3", "num_pairs=3", "solver=pgd",
        "eta=5e-324", "weight_scale=-1.0")
    assert 0.0 < float(report["gamma_hat"]) < 1.0
    assert report["window_predicted_factor"] == "inf"
    assert report["eta_in_window"] == "False"


def test_diagnose_ignores_sparsity_where_the_problem_has_no_spikes(tmp_path):
    # The default sparsity (5) exceeds n = 4, but a linear problem never
    # reads it: the incoherence estimate draws at most n columns.
    report = diagnose_report(tmp_path / "d", "latent_dim=2", "hidden_dims=3",
                             "output_dim=4", "m=3")
    assert 0.0 <= float(report["mu_hat"]) <= 1.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/stat")
@pytest.mark.parametrize("argv", [
    ("sweep", "--set", "m_list=20", "--set", "seeds=0,1", "--set", "inner_steps=10"),
    ("diagnose", "--set", "num_pairs=20", "--set", "outer_steps=2"),
], ids=["sweep", "diagnose"])
def test_each_fork_leaves_the_parent_with_one_thread(lin_config, tmp_path,
                                                     monkeypatch, argv):
    # Python 3.12 and later warn on a fork when the parent, right after
    # fork() returns, counts more than one OS thread in /proc/self/stat
    # (field 20).  A two-shard sweep and a diagnose fork while numpy's
    # OpenBLAS pool is alive; its fork handler stops the pool first, so the
    # parent reads 1 at each fork.
    counts = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            stat = Path("/proc/self/stat").read_text()
            counts.append(int(stat.rsplit(")", 1)[1].split()[20 - 3]))
        return pid

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli.os, "fork", counted_fork)
    assert run_cli(*argv, "--config", str(lin_config), "--out", str(tmp_path)) == 0
    assert counts and all(n == 1 for n in counts)
