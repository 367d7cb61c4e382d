"""The loss table in measurement space: batched rows against single rows,
the batched curvature probe against the per-pair loop it replaced, and the
magnitude misfit's subgradient at zero.  Every comparison is exact."""

import numpy as np
import pytest

from genprior import (
    GRADIENT_SCALE,
    GeneratorNet,
    Layer,
    MeasurementModel,
    Objective,
    RngStream,
    forward,
    gaussian_matrix,
    observe,
    rsc_rss_estimate,
)
from genprior.objectives import KIND_FOR_LINK, _loss_terms, sign_pm
from conftest import gradient_at, loss_at, random_net

KIND_LINK = {kind: link for link, kind in KIND_FOR_LINK.items()}
ENTRIES = (*KIND_LINK, "magnitude")


def loss_inputs(kind, batch, m, seed):
    rng = RngStream(seed)
    u = rng.standard_normal((batch, m))
    u[:, ::7] = 0.0  # exact zeros exercise sign() and sigmoid(0)
    y = rng.standard_normal(m)
    if kind in ("sim_sigmoid", "magnitude"):
        y = np.abs(y) / (1.0 + np.abs(y))
    phase = sign_pm(rng.standard_normal(m)) if kind == "phase_corrected" else None
    return u, y, phase


@pytest.mark.parametrize("kind", ENTRIES)
def test_batch_rows_equal_single_rows(kind):
    u, y, phase = loss_inputs(kind, 9, 100, seed=40)
    f_block, c_block = _loss_terms(kind, u, y, phase)
    assert f_block.shape == (9,) and c_block.shape == (9, 100)
    for i in range(9):
        f_row, c_row = _loss_terms(kind, u[i], y, phase)
        assert f_row == f_block[i]
        assert np.array_equal(c_row, c_block[i])


def test_magnitude_cotangent_is_zero_at_zero():
    u, y, _ = loss_inputs("magnitude", 4, 30, seed=41)
    _, c = _loss_terms("magnitude", u, y)
    assert np.count_nonzero(u == 0.0) > 0
    assert np.all(c[u == 0.0] == 0.0)
    assert np.all(c[u != 0.0] != 0.0)


def reference_rsc_rss(obj, net, num_pairs, rng):
    """The per-pair loop the batched probe replaced, one loss and one
    gradient per point."""
    zs = rng.standard_normal((2 * num_pairs, net.latent_dim))
    pts = forward(net, zs)
    qs = []
    for x, xp in zip(pts[0::2], pts[1::2]):
        d = xp - x
        nd2 = float(d @ d)
        if nd2 <= 1e-18:
            continue
        true_grad = gradient_at(obj, x) / GRADIENT_SCALE[obj.kind]
        bregman = loss_at(obj, xp) - loss_at(obj, x) - float(true_grad @ d)
        qs.append(2.0 * bregman / nd2)
    return float(np.min(qs)), float(np.max(qs)), len(qs)


def kind_objective(kind, net, m, seed):
    a = gaussian_matrix(m, net.output_dim, 1.0 / m, RngStream(seed))
    model = MeasurementModel(matrix=a, link=KIND_LINK[kind])
    x_star = forward(net, RngStream(seed + 1).standard_normal(net.latent_dim))
    phase = sign_pm(a @ x_star) if kind == "phase_corrected" else None
    return Objective(model, observe(model, x_star), phase)


@pytest.mark.parametrize("kind", list(KIND_LINK))
def test_rsc_rss_matches_per_pair_reference(kind, desk_net):
    obj = kind_objective(kind, desk_net, 40, seed=42)
    est = rsc_rss_estimate(obj, desk_net, 300, RngStream(43))
    assert (est.alpha, est.beta, est.samples) == \
        reference_rsc_rss(obj, desk_net, 300, RngStream(43))


@pytest.mark.parametrize("kind", list(KIND_LINK))
def test_rsc_rss_drops_degenerate_pairs_like_reference(kind):
    # G(z) = relu(z) w on a ray: every pair of negative latents maps both
    # points to 0, so about a quarter of the pairs are degenerate.
    w = np.linspace(0.5, 1.5, 12)[:, None]
    net = GeneratorNet(layers=(
        Layer(weights=np.ones((1, 1)), bias=np.zeros(1), activation="relu"),
        Layer(weights=w, bias=np.zeros(12), activation="identity"),
    ))
    obj = kind_objective(kind, net, 8, seed=44)
    est = rsc_rss_estimate(obj, net, 200, RngStream(45))
    reference = reference_rsc_rss(obj, net, 200, RngStream(45))
    assert 100 < est.samples < 200
    assert (est.alpha, est.beta, est.samples) == reference


def test_rsc_rss_matches_reference_at_default_size():
    # The default problem size, where BLAS takes its blocked kernels.
    net = random_net(46, k=20, hidden=(200,), n=784)
    obj = kind_objective("squared", net, 100, seed=47)
    est = rsc_rss_estimate(obj, net, 100, RngStream(48))
    assert (est.alpha, est.beta, est.samples) == \
        reference_rsc_rss(obj, net, 100, RngStream(48))
