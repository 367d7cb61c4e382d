"""Property tests of the boundary contract: bad weight files and any small
projection problem either raise ValueError or give finite, repeatable
results, alone or as a cell of a lockstep block, and any config drawn from
the declared key bounds either solves, sweeps and diagnoses to finite
outputs or is refused with a ConfigError before any solve.  Examples are
derandomized, so every run checks the same ones."""

import csv
import math
import struct
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genprior import (
    GeneratorNet,
    Layer,
    ProjectionConfig,
    RngStream,
    load_weights,
    project,
    random_generator,
    save_weights,
)
from genprior import cli
from genprior.projection import _project_cells

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

ACTIVATIONS = st.sampled_from(["identity", "relu", "tanh"])
DIMS = st.integers(1, 6)

# Fields whose change alters how many bytes the file must hold, so every
# single-byte change to them breaks the length bookkeeping.
MAGIC_AND_DEPTH = 12


@st.composite
def nets(draw):
    hidden = draw(st.lists(DIMS, max_size=2))
    return random_generator(draw(DIMS), hidden, draw(DIMS), draw(ACTIVATIONS),
                            RngStream(draw(st.integers(0, 2**16)), spawn_key=(77,)),
                            weight_scale=draw(st.sampled_from([0.1, 1.0, 1e3])),
                            bias_scale=draw(st.sampled_from([0.0, 0.5])))


def weight_bytes(net, tmp_dir):
    path = tmp_dir / "net.gpw"
    save_weights(net, path)
    return path.read_bytes()


def load_bytes(data, tmp_dir):
    path = tmp_dir / "probe.gpw"
    path.write_bytes(data)
    return load_weights(path)


def structural_offsets(net):
    """Byte offsets of the magic, the depth, every layer's dimensions and
    activation tags."""
    dims, tags, off = list(range(MAGIC_AND_DEPTH)), [], MAGIC_AND_DEPTH
    for layer in net.layers:
        dims += range(off, off + 8)
        tags.append(off + 8)
        off += 9 + 8 * (layer.weights.size + layer.bias.size)
    return dims, tags


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("gpw")


@PROPERTY
@given(net=nets(), cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_weight_file_raises(tmp_dir, net, cut):
    data = weight_bytes(net, tmp_dir)
    with pytest.raises(ValueError):
        load_bytes(data[: int(cut * len(data))], tmp_dir)


@PROPERTY
@given(net=nets(), where=st.floats(0.0, 1.0, exclude_max=True),
       byte=st.integers(0, 255))
def test_mutated_weight_file_raises_or_loads(tmp_dir, net, where, byte):
    data = bytearray(weight_bytes(net, tmp_dir))
    pos = int(where * len(data))
    if data[pos] == byte:
        return
    data[pos] = byte
    dims, tags = structural_offsets(net)
    try:
        loaded = load_bytes(bytes(data), tmp_dir)
    except ValueError:
        return
    # A new valid activation tag or a finite new weight value is a valid
    # file; a change to the magic, the depth or a dimension never is.
    assert pos not in dims
    assert pos not in tags or byte <= 2
    assert isinstance(loaded, GeneratorNet)
    assert [la.weights.shape for la in loaded.layers] == \
        [la.weights.shape for la in net.layers]


def test_mutated_depth_names_the_problem(tmp_dir):
    net = random_generator(2, [3], 4, "relu", RngStream(1))
    data = bytearray(weight_bytes(net, tmp_dir))
    data[8:12] = struct.pack("<I", 3)
    with pytest.raises(ValueError, match="truncated layer header"):
        load_bytes(bytes(data), tmp_dir)


@PROPERTY
@given(net=nets(), cells=st.integers(1, 4), restarts=st.integers(1, 4),
       steps=st.integers(1, 12), rate_exp=st.integers(-4, 6),
       x_exps=st.lists(st.sampled_from([0, 3, 150, 300]), min_size=4, max_size=4),
       init=st.sampled_from(["zero", "random", "warm"]),
       warm_exp=st.sampled_from([0, 307]), seed=st.integers(0, 2**16))
def test_project_raises_or_returns_finite_repeatable(net, cells, restarts, steps,
                                                     rate_exp, x_exps, init,
                                                     warm_exp, seed):
    # A warm latent (the solvers' start from the last outer step) near the
    # float64 limit overflows on its first step.  A block of cells, each
    # with its own x, warm latent and stream, must give every cell what it
    # gets alone: from project, or from a block of one with its warm latent.
    cfg = ProjectionConfig(inner_steps=steps, inner_rate=10.0**rate_exp,
                           restarts=restarts, init="random" if init == "warm" else init)
    xs, warms = [], []
    for i in range(cells):
        xs.append(10.0**x_exps[i] * RngStream(seed + i, spawn_key=(1,))
                  .standard_normal(net.output_dim))
        warm = 10.0**warm_exp * RngStream(seed + i, spawn_key=(2,)).standard_normal(
            net.latent_dim)
        warms.append(warm if init == "warm" else None)
    block = _project_cells(net, xs, cfg, [RngStream(seed + i) for i in range(cells)],
                           warms)
    for i, (x, warm, in_block) in enumerate(zip(xs, warms, block)):
        outcomes = []
        for _ in range(2):
            try:
                rng = RngStream(seed + i)
                outcomes.append(project(net, x, cfg, rng) if warm is None
                                else _project_cells(net, [x], cfg, [rng], [warm])[0])
            except ValueError as exc:
                outcomes.append(str(exc))
        first, again = outcomes
        if first is None or isinstance(first, str):
            assert first == again and (first is None or "no range point" in first)
            assert in_block is None
            continue
        assert np.all(np.isfinite(first.z_hat)) and np.all(np.isfinite(first.x_proj))
        assert np.isfinite(first.residual)
        d = x - first.x_proj
        assert first.residual == float(d @ d)
        for res in (again, in_block):
            assert np.array_equal(first.z_hat, res.z_hat)
            assert np.array_equal(first.x_proj, res.x_proj)
            assert first.residual == res.residual


@PROPERTY
@given(k=DIMS, hidden=DIMS, n=DIMS, restarts=st.integers(1, 4),
       steps=st.integers(1, 12), rate_exp=st.integers(-4, 6),
       seed=st.integers(0, 2**16))
def test_project_never_returns_an_overflowed_latent(k, hidden, n, restarts,
                                                    steps, rate_exp, seed):
    # A relu layer with nonnegative weights maps a latent that overflowed to
    # -inf back to a finite output (its bias), closer to x than the huge
    # start; that latent must not count.
    rng = RngStream(seed, spawn_key=(3,))
    net = GeneratorNet(layers=(
        Layer(weights=np.abs(rng.standard_normal((hidden, k))),
              bias=rng.standard_normal(hidden), activation="relu"),
        Layer(weights=rng.standard_normal((n, hidden)),
              bias=rng.standard_normal(n), activation="identity"),
    ))
    warm = 1e307 * np.abs(rng.standard_normal(k))
    cfg = ProjectionConfig(inner_steps=steps, inner_rate=10.0**rate_exp,
                           restarts=restarts)
    (res,) = _project_cells(net, [rng.standard_normal(n)], cfg, [RngStream(seed)],
                            [warm])
    if res is not None:  # None: no range point at a finite distance
        assert np.all(np.isfinite(res.z_hat)) and np.all(np.isfinite(res.x_proj))


# --- every accepted config solves -----------------------------------------

# A tiny net with short budgets; the other keys keep their defaults unless
# drawn.  The net's shape and the sweep-only keys are not drawn.
TINY_SOLVE = {"latent_dim": 2, "hidden_dims": 4, "output_dim": 9, "m": 5,
              "outer_steps": 3, "inner_steps": 3, "csgm_steps": 3, "dpr_steps": 3,
              "phase_init_count": 3, "num_pairs": 3}
NOT_DRAWN = {"latent_dim", "hidden_dims", "output_dim", "problem", "solver",
             "m_list", "seeds", "solvers", "weights_path", "weights_out", "out",
             "workers"}
# A sweep's cells: two m and two seeds.
TINY_SWEEP = {"m_list": "5,3", "seeds": "1,2"}
SIGNAL_LENGTH = TINY_SOLVE["output_dim"]
# The band 1e150-1e156 puts squared norms near the float64 limit.
FLOAT_EXTREMES = (5e-324, 0.5, 1e150, 3e153, 1e156, 1e300, 1e308)


def declared_values(f):
    """(accepted, refused) values to draw for one key: its choices, or its
    declared bound with the values next to it and the float extremes."""
    meta = f.metadata
    if meta.get("choices"):
        return list(meta["choices"]), []
    if isinstance(f.default, bool):
        return [False, True], []
    low, strict = meta.get("low"), meta.get("strict")
    if isinstance(f.default, int):
        least = low + 1 if strict else low
        accepted = [least, least + 1, least + 2]
        if f.name in ("m", "sparsity"):  # their rules need the signal length
            accepted += [SIGNAL_LENGTH, SIGNAL_LENGTH + 1]
        return accepted, [least - 1]
    if low is None:
        return [-1e308, -5e153, -1.0, 0.0, *FLOAT_EXTREMES], []
    accepted = [*([] if strict else [low]), *(low + v for v in FLOAT_EXTREMES)]
    if f.name == "eta":
        accepted.append("auto")
    return accepted, [math.nextafter(low, -math.inf)]


DECLARED = {f.name: declared_values(f) for f in fields(cli.ExperimentConfig)
            if f.name not in NOT_DRAWN}
PROBLEM_SOLVERS = [(p, s) for p, solvers in sorted(cli.SOLVERS_FOR_PROBLEM.items())
                   for s in solvers]


# Drawn in every config: the keys whose extremes meet in the step-size
# probe and the oracle phase start.
ALWAYS_DRAWN = ("eta", "weight_scale", "phase_init_strategy", "phase_delta0")


@st.composite
def solve_configs(draw, sweep=False):
    """--set items: a problem with a solver that applies to it (for a sweep,
    every solver that applies, over the TINY_SWEEP cells), ALWAYS_DRAWN and
    up to four other keys drawn from the values their declarations accept,
    and in one config of five a key drawn below its bound."""
    problem, solver = draw(st.sampled_from(PROBLEM_SOLVERS))
    sets = {**TINY_SOLVE, "problem": problem, "solver": solver}
    if sweep:
        del sets["solver"]
        sets.update(TINY_SWEEP, solvers=",".join(cli.SOLVERS_FOR_PROBLEM[problem]))
    others = sorted(set(DECLARED) - set(ALWAYS_DRAWN))
    for key in ALWAYS_DRAWN + tuple(draw(st.lists(st.sampled_from(others),
                                                   max_size=4, unique=True))):
        sets[key] = draw(st.sampled_from(DECLARED[key][0]))
    if draw(st.integers(0, 4)) == 0:
        key = draw(st.sampled_from(sorted(k for k, v in DECLARED.items() if v[1])))
        sets[key] = draw(st.sampled_from(DECLARED[key][1]))
    return [f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sets.items()]


def recording(fn, raised):
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            raised.append(exc)
            raise
    return wrapper


def run_drawn(command, out, sets):
    """Run ``genprior <command> --out out`` on the drawn --set items in this
    process (one usable CPU: no fork, so every raise is seen here), with
    RuntimeWarnings as errors.  A non-zero exit must be 1, from a single
    ConfigError.  Returns the exit code and whether a solver group started.
    """
    raised, entered = [], []
    solve_group = cli._solve_group
    cmd = getattr(cli, f"cmd_{command}")

    def entering(*args):
        entered.append(True)
        return solve_group(*args)

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mp.setattr(cli, "_solve_group", entering)
        mp.setattr(cli, "_usable_cpus", lambda: 1)
        mp.setattr(cli, "load_config", recording(cli.load_config, raised))
        mp.setattr(cli, f"cmd_{command}", recording(cmd, raised))
        code = cli.main([command, "--out", str(out),
                         *[a for s in sets for a in ("--set", s)]])
    if code:
        assert code == 1
        assert len(raised) == 1 and isinstance(raised[0], cli.ConfigError), raised
    return code, bool(entered)


# The documented NaN columns: no projection (t = 0, a held step, a latent
# baseline) and no phase (every solver but phase_pgd).
NAN_COLUMNS = {"proj_residual", "phase_flips"}


@settings(PROPERTY, max_examples=300)  # each example is a full (tiny) solve
@given(sets=solve_configs())
def test_every_accepted_config_solves_to_finite_outputs(tmp_dir, sets):
    out = tmp_dir / "solve"
    code, entered = run_drawn("solve", out, sets)
    assert entered == (code == 0)
    if code:
        return
    with open(out / "trace.csv") as f:
        for row in csv.DictReader(f):
            for col, v in row.items():
                assert math.isfinite(float(v)) or (
                    col in NAN_COLUMNS and math.isnan(float(v))), (col, v)
    summary = dict(kv.split("=", 1) for kv in (out / "summary.txt").read_text().split())
    for key in ("eta", "final_objective", "final_per_pixel_error",
                "image_scale_lo", "image_scale_hi"):
        if key in summary:
            assert math.isfinite(float(summary[key])), (key, summary[key])
    assert summary["alpha_fit"] == "nan" or math.isfinite(float(summary["alpha_fit"]))


@settings(PROPERTY, max_examples=200)  # each example is a (tiny) sweep
@given(sets=solve_configs(sweep=True))
def test_every_accepted_config_sweeps_to_finite_results(tmp_dir, sets):
    out = tmp_dir / "sweep"
    code, entered = run_drawn("sweep", out, sets)
    assert entered == (code == 0)
    if code:
        return
    with open(out / "results.csv") as f:
        rows = list(csv.DictReader(f))
    solvers = next(s for s in sets if s.startswith("solvers=")).split(",")
    assert len(rows) == 6 * len(solvers)  # 2 m x (2 seeds + a median) each
    for row in rows:
        for col in ("final_per_pixel_error", "final_objective", "total_inner_updates"):
            assert math.isfinite(float(row[col])), (col, row)
        assert row["alpha_fit"] == "nan" or math.isfinite(float(row["alpha_fit"])), row


# The documented non-finite diagnose rows: no rate fit, and the predicted
# factors whose denominators reach 0.
DIAGNOSE_NONFINITE = {"fitted_alpha": "nan", "predicted_mismatch_factor": "inf",
                      "window_predicted_factor": "inf"}


@settings(PROPERTY, max_examples=300)  # each example is a full (tiny) diagnose
@given(sets=solve_configs())
def test_every_accepted_config_diagnoses_to_finite_outputs(tmp_dir, sets):
    out = tmp_dir / "diagnose"
    code, _ = run_drawn("diagnose", out, sets)
    if code:
        return
    with open(out / "diagnostics.csv") as f:
        for row in csv.DictReader(f):
            try:
                v = float(row["value"])
            except ValueError:
                continue  # a label or a flag
            assert math.isfinite(v) or row["value"] == DIAGNOSE_NONFINITE.get(
                row["key"]), row
