import numpy as np
import pytest

from genprior import (
    GeneratorNet,
    Layer,
    RngStream,
    estimate_diameter,
    forward,
    latent_gradient,
    load_weights,
    random_generator,
    save_weights,
)
from genprior.generator import _forward_cached
from conftest import identity_generator, random_net


def test_identity_network_forward():
    net = identity_generator(2)
    z = np.array([1.0, -2.0])
    assert np.array_equal(forward(net, z), z)


def test_hand_computed_two_layer_relu():
    # W1 = [[1], [-1]] with relu, W2 = [[1, 1]] identity:
    # z=3 -> relu((3, -3)) = (3, 0) -> 3.
    net = GeneratorNet(layers=(
        Layer(weights=np.array([[1.0], [-1.0]]), bias=np.zeros(2), activation="relu"),
        Layer(weights=np.array([[1.0, 1.0]]), bias=np.zeros(1), activation="identity"),
    ))
    assert np.array_equal(forward(net, np.array([3.0])), np.array([3.0]))


def test_reference_architecture_dims():
    net = random_generator(20, [200], 784, "relu", RngStream(0))
    assert net.latent_dim == 20 and net.output_dim == 784 and net.depth == 2
    out = forward(net, np.zeros(20))
    assert out.shape == (784,)


def test_dimension_chain_validated():
    with pytest.raises(ValueError):
        GeneratorNet(layers=(
            Layer(weights=np.ones((3, 2)), bias=np.zeros(3), activation="relu"),
            Layer(weights=np.ones((1, 4)), bias=np.zeros(1), activation="identity"),
        ))


def test_forward_rejects_wrong_latent_length():
    net = random_net(1)
    with pytest.raises(ValueError):
        forward(net, np.zeros(net.latent_dim + 1))


def test_latent_gradient_identity_and_zero_cotangent():
    net = identity_generator(4)
    g = np.array([0.5, -1.0, 2.0, 0.0])
    assert np.array_equal(latent_gradient(net, np.zeros(4), g), g)
    net2 = random_net(2)
    assert np.array_equal(
        latent_gradient(net2, np.ones(net2.latent_dim), np.zeros(net2.output_dim)),
        np.zeros(net2.latent_dim),
    )


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_latent_gradient_batch_rows_match_single(activation):
    net = random_net(12, k=4, hidden=(9,), n=7, activation=activation)
    z = RngStream(1).standard_normal((5, 4))
    g = RngStream(2).standard_normal((5, 7))
    batch = latent_gradient(net, z, g)
    assert batch.shape == (5, 4)
    for zi, gi, bi in zip(z, g, batch):
        assert np.allclose(bi, latent_gradient(net, zi, gi), rtol=1e-12, atol=1e-14)
    with pytest.raises(ValueError, match="cotangent shape"):
        latent_gradient(net, z, g[0])
    with pytest.raises(ValueError, match="cotangent shape"):
        latent_gradient(net, z[0], g)


def _fd_latent_gradient(net, z, g, h=1e-5):
    grad = np.zeros_like(z)
    for j in range(z.shape[0]):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        grad[j] = (g @ forward(net, zp) - g @ forward(net, zm)) / (2 * h)
    return grad


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_latent_gradient_matches_finite_differences(activation):
    # 50 random (net, z, g) triples per activation, z kept away from relu
    # kinks so the finite-difference stencil stays on one linear piece.
    # numpy's Philox keyed by 404: the draws of RngStream(404), and integers.
    rng = np.random.Generator(np.random.Philox(404))
    done = 0
    attempts = 0
    while done < 50:
        attempts += 1
        assert attempts < 2000
        net = random_net(int(rng.integers(0, 10_000)), k=4, hidden=(8,),
                         n=10, activation=activation)
        z = rng.standard_normal(4)
        if activation == "relu":
            pre = net.layers[0].weights @ z + net.layers[0].bias
            if np.min(np.abs(pre)) < 1e-3:
                continue
        g = rng.standard_normal(10)
        analytic = latent_gradient(net, z, g)
        fd = _fd_latent_gradient(net, z, g)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(analytic - fd) / denom < 1e-5
        done += 1


def test_relu_subgradient_at_zero_is_zero():
    # Single relu unit with pre-activation exactly 0: gradient must vanish.
    net = GeneratorNet(layers=(
        Layer(weights=np.array([[1.0]]), bias=np.zeros(1), activation="relu"),
    ))
    assert latent_gradient(net, np.zeros(1), np.ones(1))[0] == 0.0


def test_random_generator_zero_weight_scale_composes_biases():
    rng = RngStream(5, spawn_key=(77,))
    net = random_generator(3, [6], 4, "relu", rng, weight_scale=0.0, bias_scale=1.0)
    out_a = forward(net, np.zeros(3))
    out_b = forward(net, rng.standard_normal(3))
    assert np.array_equal(out_a, out_b)
    expected = net.layers[1].weights @ np.maximum(net.layers[0].bias, 0.0) \
        + net.layers[1].bias
    assert np.max(np.abs(out_a - expected)) < 1e-15


def test_random_generator_scales_its_draws_with_their_bits():
    net = random_generator(3, [6, 5], 4, "tanh", RngStream(5, spawn_key=(77,)),
                           weight_scale=1.7, bias_scale=0.3)
    rng = RngStream(5, spawn_key=(77,))
    for layer in net.layers:
        fan_out, fan_in = layer.weights.shape
        w = (1.7 / np.sqrt(fan_in)) * rng.standard_normal((fan_out, fan_in))
        b = 0.3 * rng.standard_normal(fan_out)
        assert layer.weights.tobytes() == w.tobytes()
        assert layer.bias.tobytes() == b.tobytes()


def test_layer_arrays_read_only_copies():
    w, b = np.ones((3, 2)), np.zeros(3)
    net = GeneratorNet(layers=(Layer(weights=w, bias=b, activation="relu"),))
    with pytest.raises(ValueError):
        net.layers[0].weights[0, 0] = 5.0
    with pytest.raises(ValueError):
        net.layers[0].bias[0] = 5.0
    # The caller's arrays stay writable and are not shared with the layer.
    w[0, 0] = 5.0
    b[0] = 5.0
    assert net.layers[0].weights[0, 0] == 1.0 and net.layers[0].bias[0] == 0.0


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_forward_writes_only_its_own_layer_outputs(activation):
    # Each layer adds its bias and applies its activation in place on the
    # product's new array: the bits of act(h @ W.T + b), and neither z nor
    # the layer arrays nor an earlier cached output is written.
    net = random_generator(5, [7, 6], 9, activation, RngStream(3, spawn_key=(77,)),
                           bias_scale=0.5)
    act = {"relu": lambda u: np.maximum(u, 0.0), "tanh": np.tanh,
           "identity": lambda u: u}
    arrays = [(layer.weights.copy(), layer.bias.copy()) for layer in net.layers]
    for z in (RngStream(4).standard_normal(5), RngStream(5).standard_normal((6, 5))):
        z.setflags(write=False)
        z_before = z.copy()
        expected, h = [], z
        for layer in net.layers:
            h = act[layer.activation](h @ layer.weights.T + layer.bias)
            expected.append(h)
        out, acts = _forward_cached(net, z)
        assert forward(net, z).tobytes() == out.tobytes() == h.tobytes()
        assert [a.tobytes() for a in acts] == [e.tobytes() for e in expected]
        assert z.tobytes() == z_before.tobytes()
    for layer, (w, b) in zip(net.layers, arrays):
        assert layer.weights.tobytes() == w.tobytes()
        assert layer.bias.tobytes() == b.tobytes()


def test_layer_weights_start_on_a_cache_line():
    # Whatever the heap gave the caller's array, the layer's copy starts on
    # a 64-byte line, C-ordered, with the same values.
    for start in range(0, 64, 8):
        buf = np.zeros(200 * 20 + 16)
        w = buf[start // 8:start // 8 + 200 * 20].reshape(200, 20)
        w[...] = np.arange(w.size).reshape(w.shape)
        layer = Layer(weights=w, bias=np.zeros(200), activation="relu")
        assert layer.weights.ctypes.data % 64 == 0
        assert layer.weights.flags.c_contiguous
        assert np.array_equal(layer.weights, w)


def test_weight_file_round_trip_bitwise(tmp_path):
    net = random_generator(4, [7, 5], 9, "tanh", RngStream(42), bias_scale=0.3)
    path = tmp_path / "net.gpw"
    save_weights(net, path)
    loaded = load_weights(path)
    assert loaded.depth == net.depth
    for la, lb in zip(net.layers, loaded.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
        assert la.activation == lb.activation
    # Same generator saved twice gives identical bytes.
    path2 = tmp_path / "net2.gpw"
    save_weights(net, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_weights_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.gpw"
    bad.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_weights(bad)
    net = random_net(6)
    good = tmp_path / "good.gpw"
    save_weights(net, good)
    truncated = tmp_path / "trunc.gpw"
    truncated.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(ValueError):
        load_weights(truncated)


def test_estimate_diameter_constant_generator_is_zero():
    net = random_generator(3, [6], 4, "relu", RngStream(5, spawn_key=(77,)),
                           weight_scale=0.0, bias_scale=1.0)
    assert estimate_diameter(net, 50, RngStream(1)) == 0.0


def test_estimate_diameter_is_largest_pairwise_distance():
    # Identity generator: the range points are the latent draws themselves.
    net = identity_generator(4)
    d = estimate_diameter(net, 200, RngStream(3))
    zs = RngStream(3).standard_normal((200, 4))
    exact = max(np.linalg.norm(zi - zj) for zi in zs for zj in zs)
    assert d == pytest.approx(exact, rel=1e-12)


def test_estimate_diameter_monotone_in_samples():
    net = random_net(9)
    prev = 0.0
    for count in (2, 5, 20, 100):
        d = estimate_diameter(net, count, RngStream(17))
        assert d >= prev - 1e-12
        prev = d


def test_bias_free_relu_positive_homogeneity():
    rng = np.random.Generator(np.random.Philox(88))  # the draws of RngStream(88)
    for trial in range(10):
        net = random_net(trial, k=4, hidden=(9, 6), n=8, activation="relu")
        z = rng.standard_normal(4)
        c = float(rng.uniform(0.1, 5.0))
        lhs = forward(net, c * z)
        rhs = c * forward(net, z)
        denom = max(np.linalg.norm(rhs), 1e-12)
        assert np.linalg.norm(lhs - rhs) / denom < 1e-12


def test_forward_pure_and_batch_consistent():
    net = random_net(12)
    z = RngStream(2).standard_normal(net.latent_dim)
    a = forward(net, z)
    b = forward(net, z)
    assert np.array_equal(a, b)
    # Batched evaluation uses a different BLAS path, so agreement is to
    # rounding, not bitwise.
    batch = forward(net, np.stack([z, 2 * z]))
    assert np.max(np.abs(batch[0] - a)) < 1e-12
