"""The cached forward/backward latent kernel against the two-pass loops.

The references below are the projection and latent-descent loops written
with the public ``forward`` and ``latent_gradient`` only: every step runs the
forward pass twice (once inside ``latent_gradient``) and the baselines
recompute ``A G(z)`` for the cotangent, the acceptance check and the trace.
The reference steps a single projection restart as a vector, and several
restarts together as one (restarts, k) block, through the batched public
functions.  The package's loops cache layer outputs and losses instead, and
step (cells, restarts, k) blocks (a vector for one cell with one restart);
the results must agree to the bit.  The references follow the package's one
divergence rule: a step to a non-finite latent or loss is refused, and the
row stays at its last finite step.  The layer math the two share is checked
against finite differences in test_generator.py.
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
)
from genprior.solvers import _TraceBuilder
from conftest import identity_generator, planted_linear, project_one, random_net

TRACE_COLUMNS = ("objective", "per_pixel_error", "sign_error", "proj_residual",
                 "phase_flips")


def two_pass_project(net, x, cfg, rng):
    """One restart, stepped as a vector.  A step to a non-finite latent or
    residual is refused; since the row then stays where it is, the same step
    is refused every time, and the descent ends there."""
    assert cfg.restarts == 1
    z = rng.standard_normal(net.latent_dim)
    gx = forward(net, z)
    d = x - gx
    best_res, best_z, best_gx = float(d @ d), z.copy(), gx
    for _ in range(cfg.inner_steps):
        z_next = z - cfg.inner_rate * latent_gradient(net, z, 2.0 * (gx - x))
        gx_next = forward(net, z_next)
        d = x - gx_next
        res = float(d @ d)
        if not (np.all(np.isfinite(z_next)) and np.isfinite(res)):
            break
        z, gx = z_next, gx_next
        if res < best_res:
            best_res, best_z, best_gx = res, z.copy(), gx
    return best_z, best_gx, best_res


def block_rows_project(net, x, cfg, rng):
    """All restarts stepped as one (restarts, k) block; each row's best
    (residual, z, G(z)) in restart order.  A row takes a step only to a
    finite latent and residual, and otherwise stays where it is."""
    k = net.latent_dim
    z = np.array([rng.standard_normal(k) for _ in range(cfg.restarts)])
    best = [(np.inf, None, None)] * cfg.restarts
    gx = forward(net, z)
    for step in range(cfg.inner_steps + 1):
        if step:
            z_next = z - cfg.inner_rate * latent_gradient(net, z, 2.0 * (gx - x))
            gx_next = forward(net, z_next)
            for r in range(cfg.restarts):
                d = x - gx_next[r]
                if np.all(np.isfinite(z_next[r])) and np.isfinite(float(d @ d)):
                    z[r], gx[r] = z_next[r], gx_next[r]
        for r in range(cfg.restarts):
            d = x - gx[r]
            res = float(d @ d)
            if res < best[r][0]:
                best[r] = (res, z[r].copy(), gx[r].copy())
    return best


def block_project(net, x, cfg, rng):
    # min() keeps the first of equal residuals: the lowest restart wins.
    res, z, gx = min(block_rows_project(net, x, cfg, rng), key=lambda b: b[0])
    return z, gx, res


def two_pass_latent_descent(net, steps, rate, rng, x_star, z0, cot_fn, loss_fn):
    z = rng.standard_normal(net.latent_dim) if z0 is None else z0.copy()
    gx = forward(net, z)
    tb = _TraceBuilder(steps + 1, [x_star], net.output_dim)
    tb.add(loss_fn(gx), gx)
    for _ in range(steps):
        z_next = z - rate * latent_gradient(net, z, cot_fn(gx))
        gx_next = forward(net, z_next)
        # The projection's rule: a step to a non-finite latent or loss is
        # refused, and the iterate stays at its last finite step.
        if np.all(np.isfinite(z_next)) and np.isfinite(loss_fn(gx_next)):
            z, gx = z_next, gx_next
        tb.add(loss_fn(gx), gx)
    (trace,) = tb.build([gx], [steps])
    return gx, trace


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
    # At rate 1e5 the relu restarts overflow and freeze after ~50 steps.
    net = random_net(31, k=4, hidden=(16,), n=24, activation=activation)
    for i in range(3):
        x = RngStream(500 + i).standard_normal(net.output_dim)
        cfg = ProjectionConfig(inner_steps=60, inner_rate=rate, restarts=restarts)
        res = project_one(net, x, cfg, RngStream(600 + i))
        reference = two_pass_project if restarts == 1 else block_project
        with np.errstate(over="ignore", invalid="ignore"):
            z_ref, gx_ref, res_ref = reference(net, x, cfg, RngStream(600 + i))
        assert np.array_equal(res.z_hat, z_ref)
        assert np.array_equal(res.x_proj, gx_ref)
        assert res.residual == res_ref


@pytest.mark.parametrize("restarts", [1, 2])
def test_project_freezes_a_row_whose_residual_overflows(restarts):
    # G(z) = z and x = 3e154: the starts (near 0) lie at a finite output but
    # an infinite residual, and so would the first three steps at rate 0.1
    # (each shrinks z - x by 0.8); the fourth would be finite.  The first
    # step is refused, so every row freezes at its start and no iterate lies
    # at a finite distance from x.  A rule that let such a row step on would
    # return the fourth step.
    net = identity_generator(1)
    x = np.array([3e154])
    cfg = ProjectionConfig(inner_steps=6, inner_rate=0.1, restarts=restarts)
    reference = two_pass_project if restarts == 1 else block_project
    with np.errstate(over="ignore", invalid="ignore"):
        assert reference(net, x, cfg, RngStream(0))[2] == np.inf
    assert project_one(net, x, cfg, RngStream(0)) is None


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_block_rows_match_serial_restarts(activation):
    # GEMM and GEMV sum in different orders, so a block row may drift from
    # its serial descent in the last bits, and no further.
    net = random_net(32, k=4, hidden=(16,), n=24, activation=activation)
    x = RngStream(700).standard_normal(net.output_dim)
    cfg = ProjectionConfig(inner_steps=60, inner_rate=0.05, restarts=4)
    rng = RngStream(701)
    starts = [rng.standard_normal(net.latent_dim) for _ in range(cfg.restarts)]
    rows = block_rows_project(net, x, cfg, RngStream(701))
    for start, (res, z, gx) in zip(starts, rows):
        serial = project_one(net, x, ProjectionConfig(
            inner_steps=60, inner_rate=0.05), RngStream(0), start)
        assert res == pytest.approx(serial.residual, rel=1e-9)
        for got, want in ((z, serial.z_hat), (gx, serial.x_proj)):
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


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
    assert trace.inner_updates == ref.inner_updates
