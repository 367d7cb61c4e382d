import numpy as np
import pytest

from genprior import (
    GeneratorNet,
    Layer,
    RngStream,
    estimate_diameter,
    forward,
    identity_generator,
    latent_gradient,
    load_weights,
    random_generator,
    sample_range,
    save_weights,
)
from conftest import random_net


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
    rng = RngStream(404)
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


def test_sample_range_unit_norm_and_determinism():
    net = random_net(3)
    s = sample_range(net, RngStream(8), unit_norm=True)
    assert abs(np.linalg.norm(s.z) - 1.0) < 1e-12
    s2 = sample_range(net, RngStream(8), unit_norm=True)
    assert np.array_equal(s.z, s2.z) and np.array_equal(s.x, s2.x)
    assert np.array_equal(s.x, forward(net, s.z))


def test_sample_range_latent_mean_near_zero():
    net = random_net(4, k=5)
    rng = RngStream(15)
    zs = np.array([sample_range(net, rng).z for _ in range(1000)])
    assert np.max(np.abs(zs.mean(axis=0))) < 0.15


def test_random_generator_zero_weight_scale_composes_biases():
    rng = RngStream(5, spawn_key=(77,))
    net = random_generator(3, [6], 4, "relu", rng, weight_scale=0.0, bias_scale=1.0)
    out_a = forward(net, np.zeros(3))
    out_b = forward(net, rng.standard_normal(3))
    assert np.array_equal(out_a, out_b)
    expected = net.layers[1].weights @ np.maximum(net.layers[0].bias, 0.0) \
        + net.layers[1].bias
    assert np.max(np.abs(out_a - expected)) < 1e-15


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


def test_estimate_diameter_unit_sphere():
    # Identity generator with unit-norm z: diameter of the sphere is 2.
    net = identity_generator(4)
    d = estimate_diameter(net, 200, RngStream(3), unit_norm=True)
    assert 1.5 < d <= 2.0 + 1e-12


def test_estimate_diameter_monotone_in_samples():
    net = random_net(9)
    prev = 0.0
    for count in (2, 5, 20, 100):
        d = estimate_diameter(net, count, RngStream(17))
        assert d >= prev - 1e-12
        prev = d


def test_bias_free_relu_positive_homogeneity():
    rng = RngStream(88)
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
