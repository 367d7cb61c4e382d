"""The cached forward/backward latent kernel against the two-pass loops.

The references below are the projection and latent-descent loops written
with the public ``forward`` and ``latent_gradient`` only: every step runs the
forward pass twice (once inside ``latent_gradient``) and the baselines
recompute ``A G(z)`` for the cotangent, the acceptance check and the trace.
The package's loops cache layer outputs and losses instead; the results
must agree to the bit.  The layer math the two share is checked against
finite differences in test_generator.py.
"""

import numpy as np
import pytest

from genprior import (
    ProjectionConfig,
    RngStream,
    csgm_baseline,
    dpr_baseline,
    forward,
    latent_gradient,
    project,
)
from genprior.numerics import as_vector
from genprior.solvers import _TraceBuilder
from conftest import planted_linear, random_net

TRACE_COLUMNS = ("objective", "per_pixel_error", "sign_error", "proj_residual",
                 "phase_flips")


def two_pass_project(net, x, cfg, rng):
    k = net.latent_dim
    best_res, best_z, best_gx = np.inf, None, None
    for restart in range(cfg.restarts):
        if restart == 0 and cfg.init == "zero":
            z = np.zeros(k)
        elif restart == 0 and cfg.init == "warm":
            z = as_vector(cfg.warm_z, "warm_z").copy()
        else:
            z = rng.standard_normal(k)
        gx = forward(net, z)
        d = x - gx
        res = float(d @ d)
        if res < best_res:
            best_res, best_z, best_gx = res, z.copy(), gx
        for _ in range(cfg.inner_steps):
            z = z - cfg.inner_rate * latent_gradient(net, z, 2.0 * (gx - x))
            gx = forward(net, z)
            if not np.all(np.isfinite(gx)):
                break
            d = x - gx
            res = float(d @ d)
            if res < best_res:
                best_res, best_z, best_gx = res, z.copy(), gx
    return best_z, best_gx, best_res


def two_pass_latent_descent(net, steps, rate, rng, x_star, z0, cot_fn, loss_fn):
    z = rng.standard_normal(net.latent_dim) if z0 is None else z0.copy()
    gx = forward(net, z)
    tb = _TraceBuilder(x_star)
    tb.add(loss_fn(gx), gx)
    for _ in range(steps):
        z_next = z - rate * latent_gradient(net, z, cot_fn(gx))
        gx_next = forward(net, z_next)
        if np.all(np.isfinite(gx_next)) and np.isfinite(loss_fn(gx_next)):
            z, gx = z_next, gx_next
        tb.add(loss_fn(gx), gx)
    return gx, tb.build(gx, z, steps)


def two_pass_baseline(kind, y, a, net, steps, rate, rng, x_star=None, z0=None):
    def cot(gx):
        u = a @ gx
        if kind == "csgm":
            return a.T @ (2.0 * (u - y))
        return a.T @ (2.0 * np.sign(u) * (np.abs(u) - y))

    def loss(gx):
        u = a @ gx
        r = y - (u if kind == "csgm" else np.abs(u))
        return float(r @ r)

    with np.errstate(over="ignore", invalid="ignore"):
        return two_pass_latent_descent(net, steps, rate, rng, x_star, z0, cot, loss)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("restarts", [1, 3])
@pytest.mark.parametrize("rate", [0.05, 1e5])
def test_project_matches_two_pass_reference(activation, restarts, rate):
    # At rate 1e5 the relu restarts overflow and break out after ~50 steps.
    net = random_net(31, k=4, hidden=(16,), n=24, activation=activation)
    for i in range(3):
        x = RngStream(500 + i).standard_normal(net.output_dim)
        cfg = ProjectionConfig(inner_steps=60, inner_rate=rate, restarts=restarts)
        res = project(net, x, cfg, RngStream(600 + i))
        with np.errstate(over="ignore", invalid="ignore"):
            z_ref, gx_ref, res_ref = two_pass_project(net, x, cfg,
                                                      RngStream(600 + i))
        assert np.array_equal(res.z_hat, z_ref)
        assert np.array_equal(res.x_proj, gx_ref)
        assert res.residual == res_ref


@pytest.mark.parametrize("kind", ["csgm", "dpr"])
@pytest.mark.parametrize("rate", [0.01, 100.0])
def test_baselines_match_two_pass_reference(desk_net, kind, rate):
    # At rate 100 the iterates blow up and later steps are held.
    _, x_star, a, y = planted_linear(desk_net, 64, seed=14)
    solver = csgm_baseline
    if kind == "dpr":
        y, solver = np.abs(y), dpr_baseline
    x_hat, trace = solver(y, a, desk_net, 60, rate, RngStream(14), x_star=x_star)
    x_ref, ref = two_pass_baseline(kind, y, a, desk_net, 60, rate, RngStream(14),
                                   x_star=x_star)
    if rate == 100.0:
        assert np.any(np.diff(trace.objective) == 0.0)
    for col in TRACE_COLUMNS:
        assert np.array_equal(getattr(trace, col), getattr(ref, col), equal_nan=True)
    assert np.array_equal(x_hat, x_ref)
    assert np.array_equal(trace.z_hat, ref.z_hat)
    assert trace.inner_updates == ref.inner_updates
