import numpy as np
import pytest

from genprior import (
    GeneratorNet,
    Layer,
    ProjectionConfig,
    RngStream,
    forward,
    random_generator,
)
from conftest import (brute_force_project, identity_generator, project_one,
                      random_net, relu_unit_net)


def test_warm_start_on_range_point_is_exact():
    net = random_net(1)
    z0 = RngStream(2).standard_normal(net.latent_dim)
    x = forward(net, z0)
    cfg = ProjectionConfig(inner_steps=5, inner_rate=0.01)
    res = project_one(net, x, cfg, RngStream(3), z0)
    assert res.residual == 0.0
    assert np.array_equal(res.x_proj, x)


def test_identity_generator_one_exact_step():
    # G(z) = z: the inner loss is ||x - z||^2, solved in one step at rate 1/2.
    net = identity_generator(6)
    x = RngStream(4).standard_normal(6)
    cfg = ProjectionConfig(inner_steps=1, inner_rate=0.5)
    res = project_one(net, x, cfg, RngStream(5), np.zeros(6))
    assert np.max(np.abs(res.x_proj - x)) < 1e-15
    assert res.residual < 1e-28


def test_project_beats_grid_oracle(toy2_net):
    # Small version of the acceptance check: descent with restarts lands
    # at or below the 201x201 lattice optimum (+ 1e-2 slack).
    cfg = ProjectionConfig(inner_steps=300, inner_rate=0.02, restarts=8)
    for i in range(5):
        rng = RngStream(200 + i)
        x = 0.7 * rng.derive(0).standard_normal(toy2_net.output_dim)
        bees = brute_force_project(toy2_net, x, (-3.0, 3.0), 201)
        res = project_one(toy2_net, x, cfg, rng.derive(1))
        assert res.residual <= bees.residual + 1e-2


def test_brute_force_grid_hits_exact_point():
    net = identity_generator(1)
    res = brute_force_project(net, np.array([0.7]), (-1.0, 1.0), 201)
    assert res.z_hat[0] == pytest.approx(0.7, abs=1e-12)
    assert res.residual < 1e-28


def test_brute_force_constant_generator():
    net = random_generator(2, [4], 3, "relu", RngStream(5, spawn_key=(77,)),
                           weight_scale=0.0, bias_scale=1.0)
    x = np.array([1.0, 2.0, 3.0])
    const = forward(net, np.zeros(2))
    res = brute_force_project(net, x, (-1.0, 1.0), 11)
    assert res.residual == pytest.approx(float(np.sum((x - const) ** 2)))


def test_brute_force_rejects_large_latent():
    net = random_net(6, k=4)
    with pytest.raises(ValueError):
        brute_force_project(net, np.zeros(net.output_dim), (-1.0, 1.0), 11)


def test_best_seen_no_worse_than_init():
    # Even with a wildly unstable inner rate the reported residual cannot
    # exceed the initialization's.
    net = random_net(7, k=3, hidden=(12,), n=16)
    rng = RngStream(31)
    for i in range(10):
        x = rng.standard_normal(16)
        z0 = rng.standard_normal(3)
        cfg = ProjectionConfig(inner_steps=40, inner_rate=5.0)
        res = project_one(net, x, cfg, RngStream(100 + i), z0)
        init_res = float(np.sum((x - forward(net, z0)) ** 2))
        assert res.residual <= init_res + 1e-12


def test_near_idempotence_on_range_points(desk_net):
    # Range points project back onto themselves to (measured) eps <= 1e-4;
    # this measured slack is what the solvers' bookkeeping budgets for.
    cfg = ProjectionConfig(inner_steps=500, inner_rate=0.02, restarts=6)
    worst = 0.0
    for i in range(20):
        x = forward(desk_net, RngStream(50 + i).standard_normal(desk_net.latent_dim))
        res = project_one(desk_net, x, cfg, RngStream(1000 + i))
        worst = max(worst, res.residual)
    assert worst <= 1e-4


def test_project_deterministic_given_seed(desk_net):
    x = RngStream(60).standard_normal(desk_net.output_dim)
    cfg = ProjectionConfig(inner_steps=50, inner_rate=0.05, restarts=3)
    r1 = project_one(desk_net, x, cfg, RngStream(61))
    r2 = project_one(desk_net, x, cfg, RngStream(61))
    assert np.array_equal(r1.z_hat, r2.z_hat)
    assert r1.residual == r2.residual


def test_result_consistency_fields(desk_net):
    x = RngStream(62).standard_normal(desk_net.output_dim)
    cfg = ProjectionConfig(inner_steps=30, inner_rate=0.05)
    res = project_one(desk_net, x, cfg, RngStream(63))
    assert np.array_equal(res.x_proj, forward(desk_net, res.z_hat))
    d = x - res.x_proj
    assert res.residual == pytest.approx(float(d @ d), rel=1e-12)


def test_project_returns_none_when_no_finite_range_point(desk_net):
    # Every range point is ~1e300 away: the squared distance overflows for
    # every iterate of every restart, so there is nothing to return.
    x = 1e300 * np.ones(desk_net.output_dim)
    cfg = ProjectionConfig(inner_steps=5, inner_rate=0.05, restarts=2)
    assert project_one(desk_net, x, cfg, RngStream(64)) is None


def test_dead_restart_never_counts_again():
    # G(z) = 1e300 relu(z).  Restart 0 starts at z = 1e9, where G overflows,
    # and its gradient step would land at z = -inf, where G = 0 is finite
    # again; that step is refused, so the row freezes at its start.
    # Restart 1 starts below 0 and holds G = 0 at a finite latent, which
    # must win the tie.
    net = GeneratorNet(layers=(
        Layer(weights=[[1.0]], bias=[0.0], activation="relu"),
        Layer(weights=[[1e300]], bias=[0.0], activation="identity"),
    ))
    cfg = ProjectionConfig(inner_steps=3, inner_rate=1.0, restarts=2)
    start = RngStream(0).standard_normal((1, 1))[0]
    assert start[0] < 0.0
    res = project_one(net, np.array([1.0]), cfg, RngStream(0), np.array([1e9]))
    assert np.array_equal(res.z_hat, start)
    assert res.residual == 1.0


def test_overflowed_latent_is_never_returned():
    # From z = 1e308 the first step lands at z = -inf, where relu maps back
    # to G = 0 at residual 1.  The start itself lies at an infinite distance,
    # so no iterate with a finite latent is left to return.
    cfg = ProjectionConfig(inner_steps=3, inner_rate=1.0)
    assert project_one(relu_unit_net(), np.array([1.0]), cfg, RngStream(0),
                       np.array([1e308])) is None


@pytest.mark.parametrize("restarts", [1, 2])
def test_overflowed_latent_row_is_dead(restarts):
    # Restart 0 starts at z = 1 (residual 1 to x = 0); its first step
    # overflows to z = -inf, where G = 0 would fit x exactly.  The step is
    # refused and the row freezes instead: alone it returns its start, and
    # beside restart 1 (a negative start, also at G = 0) the finite latent
    # of restart 1 wins.
    cfg = ProjectionConfig(inner_steps=3, inner_rate=1e308, restarts=restarts)
    res = project_one(relu_unit_net(), np.array([0.0]), cfg, RngStream(0),
                      np.array([1.0]))
    assert np.all(np.isfinite(res.z_hat))
    if restarts == 1:
        assert res.z_hat[0] == 1.0 and res.residual == 1.0
    else:
        start = RngStream(0).standard_normal((1, 1))[0]
        assert start[0] < 0.0
        assert np.array_equal(res.z_hat, start) and res.residual == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        ProjectionConfig(inner_steps=0)
    with pytest.raises(ValueError):
        ProjectionConfig(inner_rate=0.0)
    with pytest.raises(ValueError):
        ProjectionConfig(restarts=0)
