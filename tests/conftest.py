import numpy as np
import pytest

from genprior import (
    GeneratorNet,
    Layer,
    ProjectionResult,
    RngStream,
    forward,
    gaussian_matrix,
    random_generator,
)


@pytest.fixture
def desk_net():
    """The workhorse planted-recovery generator: relu 8 -> 64 -> 128."""
    return random_generator(8, [64], 128, "relu", RngStream(7, spawn_key=(901,)))


@pytest.fixture
def toy2_net():
    """Small k=2 tanh generator whose latent plane a grid can cover."""
    return random_generator(2, [16], 32, "tanh", RngStream(11, spawn_key=(901,)))


def planted_linear(net, m, seed):
    """y = A G(z*) with the sensing matrix at the reference 1/m variance."""
    root = RngStream(seed)
    z_star = root.derive(0).standard_normal(net.latent_dim)
    x_star = forward(net, z_star)
    a = gaussian_matrix(m, net.output_dim, 1.0 / m, root.derive(1, m))
    return z_star, x_star, a, a @ x_star


def random_net(seed, k=3, hidden=(10,), n=12, activation="relu"):
    return random_generator(k, list(hidden), n, activation,
                            RngStream(seed, spawn_key=(77,)))


def identity_generator(n):
    """The generator G(z) = z on R^n."""
    return GeneratorNet(layers=(
        Layer(weights=np.eye(n), bias=np.zeros(n), activation="identity"),
    ))


def relu_unit_net():
    """G(z) = relu(z) on R: one relu unit with an identity output."""
    return GeneratorNet(layers=(
        Layer(weights=[[1.0]], bias=[0.0], activation="relu"),
        Layer(weights=[[1.0]], bias=[0.0], activation="identity"),
    ))


def brute_force_project(net, x, grid_bounds, grid_points_per_dim):
    """Exhaustive lattice search over the latent box; the projection oracle.

    Guarded to k <= 3: the lattice has points_per_dim**k nodes.  Returns
    the lattice minimizer (first hit wins on exact ties).
    """
    x = np.asarray(x, dtype=np.float64)
    k = net.latent_dim
    if k > 3:
        raise ValueError(f"brute force projection is limited to k <= 3, got k={k}")
    lo, hi = float(grid_bounds[0]), float(grid_bounds[1])
    pts = int(grid_points_per_dim)
    if pts < 2:
        raise ValueError("need at least 2 grid points per dimension")
    axes = [np.linspace(lo, hi, pts)] * k
    mesh = np.meshgrid(*axes, indexing="ij")
    zs = np.stack([m.ravel() for m in mesh], axis=1)  # (pts**k, k)
    xs = forward(net, zs)
    res = np.sum((xs - x[None, :]) ** 2, axis=1)
    idx = int(np.argmin(res))
    return ProjectionResult(z_hat=zs[idx], x_proj=xs[idx], residual=float(res[idx]))
