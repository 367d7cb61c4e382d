"""Property tests of the boundary contract: bad weight files and any small
projection problem either raise ValueError or give finite, repeatable
results, alone or as a cell of a lockstep block.  Examples are
derandomized, so every run checks the same ones."""

import struct

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
    # A warm latent near the float64 limit overflows on its first step.  A
    # block of cells, each with its own x, warm latent and stream, must give
    # every cell what project gives it alone.
    xs, cfgs = [], []
    for i in range(cells):
        xs.append(10.0**x_exps[i] * RngStream(seed + i, spawn_key=(1,))
                  .standard_normal(net.output_dim))
        warm = 10.0**warm_exp * RngStream(seed + i, spawn_key=(2,)).standard_normal(
            net.latent_dim)
        cfgs.append(ProjectionConfig(inner_steps=steps, inner_rate=10.0**rate_exp,
                                     restarts=restarts, init=init,
                                     warm_z=warm if init == "warm" else None))
    block = _project_cells(net, xs, cfgs, [RngStream(seed + i) for i in range(cells)])
    for x, cfg, i, in_block in zip(xs, cfgs, range(cells), block):
        outcomes = []
        for _ in range(2):
            try:
                outcomes.append(project(net, x, cfg, RngStream(seed + i)))
            except ValueError as exc:
                outcomes.append(str(exc))
        first, again = outcomes
        if isinstance(first, str):
            assert first == again and "no range point" in first
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
                           restarts=restarts, init="warm", warm_z=warm)
    try:
        res = project(net, rng.standard_normal(n), cfg, RngStream(seed))
    except ValueError as exc:
        assert "no range point" in str(exc)
        return
    assert np.all(np.isfinite(res.z_hat)) and np.all(np.isfinite(res.x_proj))
