import tracemalloc

import numpy as np
import pytest

from genprior import (
    GeneratorNet,
    Layer,
    MeasurementModel,
    Objective,
    RngStream,
    SolveTrace,
    contraction_bound_general,
    contraction_bound_mismatch,
    convergence_rate,
    empirical_srec,
    forward,
    gaussian_matrix,
    incoherence_estimate,
    observe,
    random_generator,
    rsc_rss_estimate,
    step_size_window_check,
)
from genprior import cli
from genprior.diagnostics import _PAIR_BLOCK, _pair_blocks
from genprior.objectives import GRADIENT_SCALE, _adjoint, _apply, _loss_terms
from genprior.solvers import _TraceBuilder
from conftest import identity_generator, random_net


def axis_generator(n, axis=0):
    """G(z) = z * e_axis: a one-dimensional range along a coordinate."""
    w = np.zeros((n, 1))
    w[axis, 0] = 1.0
    return GeneratorNet(layers=(
        Layer(weights=w, bias=np.zeros(n), activation="identity"),
    ))


# --- empirical_srec -----------------------------------------------------


def orthonormal(n, seed):
    q, r = np.linalg.qr(RngStream(seed).standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def test_srec_orthonormal_identity_generator():
    a = orthonormal(6, seed=1)
    est = empirical_srec(a, identity_generator(6), 50, RngStream(2))
    assert est.gamma == pytest.approx(1.0, abs=1e-10)
    assert est.rho == pytest.approx(1.0, abs=1e-10)
    assert est.pairs_used == 50


def test_srec_zero_matrix():
    est = empirical_srec(np.zeros((4, 6)), identity_generator(6), 20, RngStream(3))
    assert est.gamma == 0.0 and est.rho == 0.0


def test_srec_gaussian_recorded_range(desk_net):
    a = gaussian_matrix(200, desk_net.output_dim, 1.0 / 200, RngStream(4))
    est = empirical_srec(a, desk_net, 500, RngStream(5))
    assert 0.1 < est.gamma
    assert est.gamma <= est.rho**2


def test_srec_monotone_in_sample_size(desk_net):
    a = gaussian_matrix(64, desk_net.output_dim, 1.0 / 64, RngStream(6))
    prev_gamma, prev_rho = np.inf, 0.0
    for pairs in (10, 50, 200):
        est = empirical_srec(a, desk_net, pairs, RngStream(7))
        assert est.gamma <= prev_gamma + 1e-15
        assert est.rho >= prev_rho - 1e-15
        prev_gamma, prev_rho = est.gamma, est.rho


def test_srec_degenerate_pairs_rejected():
    constant = random_generator(2, [4], 3, "relu", RngStream(5, spawn_key=(77,)),
                                weight_scale=0.0, bias_scale=1.0)
    with pytest.raises(ValueError):
        empirical_srec(np.eye(3), constant, 10, RngStream(8))


# --- rsc_rss_estimate ---------------------------------------------------


def test_rsc_rss_orthonormal_quadratic_is_two():
    a = orthonormal(5, seed=9)
    y = RngStream(10).standard_normal(5)
    obj = Objective(model=MeasurementModel(matrix=a, link="linear"), y=y)
    est = rsc_rss_estimate(obj, identity_generator(5), 40, RngStream(11))
    assert est.alpha == pytest.approx(2.0, abs=1e-9)
    assert est.beta == pytest.approx(2.0, abs=1e-9)


def test_rsc_rss_scaled_identity():
    c = 1.7
    a = c * np.eye(4)
    obj = Objective(model=MeasurementModel(matrix=a, link="linear"),
                    y=np.zeros(4))
    est = rsc_rss_estimate(obj, identity_generator(4), 30, RngStream(12))
    assert est.alpha == pytest.approx(2 * c**2, rel=1e-10)
    assert est.beta == pytest.approx(2 * c**2, rel=1e-10)


def test_rsc_rss_matches_rayleigh_extremes_on_quadratic():
    # For the squared loss the Bregman quotient of each sampled pair is
    # exactly 2 ||A d||^2 / ||d||^2; replicate the pair stream and compare.
    net = random_net(13, k=3, hidden=(8,), n=10)
    a = RngStream(14).standard_normal((6, 10))
    obj = Objective(model=MeasurementModel(matrix=a, link="linear"),
                    y=RngStream(15).standard_normal(6))
    est = rsc_rss_estimate(obj, net, 25, RngStream(16))
    zs = RngStream(16).standard_normal((50, 3))
    pts = forward(net, zs)
    xs, xps = pts[0::2], pts[1::2]
    d = xps - xs
    q = 2.0 * np.sum((d @ a.T) ** 2, axis=1) / np.sum(d**2, axis=1)
    assert est.alpha == pytest.approx(float(np.min(q)), rel=1e-10)
    assert est.beta == pytest.approx(float(np.max(q)), rel=1e-10)


def test_rsc_rss_sigmoid_regime_recorded():
    net = random_net(17, k=4, hidden=(16,), n=24)
    a = gaussian_matrix(96, 24, 1.0 / 96, RngStream(18))
    model = MeasurementModel(matrix=a, link="sigmoid")
    x_star = forward(net, RngStream(19).standard_normal(4))
    obj = Objective(model, observe(model, x_star))
    est = rsc_rss_estimate(obj, net, 200, RngStream(20))
    assert 0.0 < est.alpha <= est.beta
    assert est.ratio >= 1.0


# --- row blocks against one whole block --------------------------------


def whole_block_pairs(net, num_pairs, seed):
    pts = forward(net, RngStream(seed).standard_normal((2 * num_pairs,
                                                        net.latent_dim)))
    return pts[0::2], pts[1::2]


def whole_block_srec(a, net, num_pairs, seed):
    """(gamma, rho, pairs used) of every pair in one block."""
    x1, x2 = whole_block_pairs(net, num_pairs, seed)
    d = x1 - x2
    norms = np.linalg.norm(d, axis=1)
    keep = norms > 1e-9
    ratios = np.linalg.norm(_apply(a, d[keep]), axis=1) / norms[keep]
    return float(np.min(ratios**2)), float(np.max(ratios)), int(np.sum(keep))


def whole_block_rsc_rss(obj, net, num_pairs, seed):
    """(alpha, beta, samples) of every pair in one block."""
    xs, xps = whole_block_pairs(net, num_pairs, seed)
    a, kind = obj.model.matrix, obj.kind
    f, c = _loss_terms(kind, _apply(a, xs), obj.y, obj.phase)
    fp, _ = _loss_terms(kind, _apply(a, xps), obj.y, obj.phase)
    d = xps - xs
    nd2 = np.vecdot(d, d)
    keep = nd2 > 1e-9**2
    grad = _adjoint(kind, a, c) / GRADIENT_SCALE[kind]
    qs = 2.0 * (fp - f - np.vecdot(grad, d))[keep] / nd2[keep]
    return float(np.min(qs)), float(np.max(qs)), len(qs)


def half_dead_net(n):
    """G(z) = relu(z) w: a pair whose latents are both negative maps to one
    point, so about a quarter of the pairs are degenerate."""
    return GeneratorNet(layers=(
        Layer(weights=[[1.0]], bias=[0.0], activation="relu"),
        Layer(weights=RngStream(3).standard_normal((n, 1)), bias=np.zeros(n),
              activation="identity"),
    ))


def block_objective(link, n, pinned=False):
    a = gaussian_matrix(48, n, 1.0 / 48, RngStream(21))
    model = MeasurementModel(matrix=a, link=link)
    y = observe(model, RngStream(22).standard_normal(n))
    phase = np.where(RngStream(23).standard_normal(48) >= 0, 1.0, -1.0)
    return Objective(model, y, phase=phase if pinned else None)


@pytest.mark.parametrize("num_pairs", [300, 1001, 2000])
@pytest.mark.parametrize("link, pinned", [
    ("linear", False), ("sigmoid", False), ("sinusoid", False),
    ("magnitude", False), ("magnitude", True)])
@pytest.mark.parametrize("net", [random_net(31, k=6, hidden=(24,), n=40),
                                 half_dead_net(40)], ids=["relu", "half_dead"])
def test_estimates_in_row_blocks_match_one_whole_block(num_pairs, link, pinned, net):
    # Every row of a block is a per-row product or reduction, so the blocked
    # estimates have the bits of one block over all pairs.
    obj = block_objective(link, net.output_dim, pinned)
    srec = empirical_srec(obj.model.matrix, net, num_pairs, RngStream(41))
    assert (srec.gamma, srec.rho, srec.pairs_used) == whole_block_srec(
        obj.model.matrix, net, num_pairs, 41)
    est = rsc_rss_estimate(obj, net, num_pairs, RngStream(42))
    assert (est.alpha, est.beta, est.samples) == whole_block_rsc_rss(
        obj, net, num_pairs, 42)


def test_half_dead_net_has_some_degenerate_pairs():
    net = half_dead_net(40)
    a = block_objective("linear", 40).model.matrix
    assert 0 < empirical_srec(a, net, 1001, RngStream(41)).pairs_used < 1001


@pytest.mark.parametrize("count", [300, 2000])
def test_pair_blocks_apply_one_pair_rule(count):
    # _pair_blocks drops every degenerate pair itself, so each estimate
    # counts the pairs it yields; a block that drops none yields views of
    # its forward.
    net = half_dead_net(40)
    blocks = list(_pair_blocks(net, count, RngStream(41)))
    kept = sum(len(d) for _, _, d, _ in blocks)
    assert 0 < kept < count
    assert all(np.all(np.vecdot(d, d) > 1e-18) for _, _, d, _ in blocks)
    obj = block_objective("linear", 40)
    assert empirical_srec(obj.model.matrix, net, count, RngStream(41)).pairs_used == kept
    assert rsc_rss_estimate(obj, net, count, RngStream(41)).samples == kept
    relu = random_net(31, k=6, hidden=(24,), n=40)
    for x1, x2, _, _ in _pair_blocks(relu, count, RngStream(41)):
        assert x1.base is x2.base and x1.base is not None


def test_estimates_refuse_a_constant_range_across_blocks():
    constant = random_generator(2, [4], 40, "relu", RngStream(5, spawn_key=(77,)),
                                weight_scale=0.0, bias_scale=1.0)
    obj = block_objective("linear", 40)
    with pytest.raises(ValueError, match="degenerate"):
        empirical_srec(obj.model.matrix, constant, 1001, RngStream(8))
    with pytest.raises(ValueError, match="degenerate"):
        rsc_rss_estimate(obj, constant, 1001, RngStream(8))


def cli_net(*items):
    return cli.build_generator(cli.load_config(overrides=items))


DEFAULT_NET = cli_net()
SMALL_NET = cli_net("latent_dim=8", "hidden_dims=32,32", "output_dim=128")


@pytest.mark.parametrize("count", [1, 2, 255, 256, 257, 300, 511, 513, 1001,
                                   2000, 2005, 2049])
@pytest.mark.parametrize("net", [DEFAULT_NET, SMALL_NET],
                         ids=["default", "sweep_small"])
def test_pair_blocks_have_the_rows_of_one_forward(count, net):
    # Each block takes its own forward; on the sweep_small net a forward of
    # fewer than 38 rows has other bits than the long product, so no block
    # may be left with a short remainder (257, 513 and 2049 would leave one
    # pair after blocks of 256).
    blocks = list(_pair_blocks(net, count, RngStream(43)))
    assert all(len(d) >= min(count, _PAIR_BLOCK) for _, _, d, _ in blocks)
    x1, x2, d, dd = (np.concatenate(parts) for parts in zip(*blocks))
    pts = forward(net, RngStream(43).standard_normal((2 * count, net.latent_dim)))
    assert x1.tobytes() == pts[0::2].tobytes()
    assert x2.tobytes() == pts[1::2].tobytes()
    assert d.tobytes() == (pts[0::2] - pts[1::2]).tobytes()
    assert dd.tobytes() == np.vecdot(d, d).tobytes()


@pytest.mark.parametrize("estimate", ["srec", "rsc_rss"])
def test_estimates_hold_one_pair_block_at_default_size(estimate):
    # 2,000 pairs at k=20 -> 200 -> n=784 run as 7 blocks of 285 or 286,
    # each with its own forward (a 572 x 784 output, 3.4 MiB).  With the
    # latents of all pairs and the row products of a block or two, an
    # estimate peaks near 13 MiB; one forward over all pairs held 30 MiB.
    cfg = cli.load_config()
    net = cli.build_generator(cfg)
    obj, _ = cli.build_instance(cfg, net, cfg.m, cfg.seed)
    tracemalloc.start()
    try:
        if estimate == "srec":
            empirical_srec(obj.model.matrix, net, 2000, RngStream(1))
        else:
            rsc_rss_estimate(obj, net, 2000, RngStream(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


# --- convergence_rate ---------------------------------------------------


def _trace_from(values):
    n = len(values)
    nanc = np.full(n, np.nan)
    return SolveTrace(objective=np.asarray(values, dtype=float),
                      per_pixel_error=nanc.copy(), sign_error=nanc.copy(),
                      proj_residual=nanc.copy(), phase_flips=nanc.copy(),
                      x_hat=np.zeros(1), inner_updates=0)


def test_rate_fit_exact_geometric():
    alpha_fit = convergence_rate(_trace_from([0.5**t for t in range(12)]), 0.0)
    assert alpha_fit == pytest.approx(0.5, abs=1e-10)


def test_rate_fit_constant_trace():
    alpha_fit = convergence_rate(_trace_from([3.0] * 8), 0.0)
    assert alpha_fit == pytest.approx(1.0, abs=1e-12)


def test_rate_fit_recovers_alpha_above_floor():
    alpha, delta = 0.6, 1e-12
    f = [1.0]
    for _ in range(20):
        f.append(alpha * f[-1] + delta)
    assert abs(convergence_rate(_trace_from(f), 1e-6) - alpha) < 1e-3


def test_rate_fit_needs_three_records():
    with pytest.raises(ValueError):
        convergence_rate(_trace_from([1.0, 0.5, 1e-12, 1e-12]), 1e-6)


# --- incoherence_estimate -----------------------------------------------


def test_incoherence_aligned_directions_is_one():
    # n = 1: every range difference and every sparse difference lie on e_0.
    net = axis_generator(1, axis=0)
    mu = incoherence_estimate(net, np.eye(1), 30, RngStream(22), sparsity=1)
    assert mu == pytest.approx(1.0, abs=1e-12)


def test_incoherence_refuses_sparsity_above_n():
    net = axis_generator(4, axis=0)
    for sparsity in (0, 5):
        with pytest.raises(ValueError, match=r"sparsity must be in \[1, n=4\]"):
            incoherence_estimate(net, np.eye(4), 30, RngStream(22), sparsity=sparsity)


def test_incoherence_toy_in_open_interval(desk_net):
    mu = incoherence_estimate(desk_net, np.eye(desk_net.output_dim), 100,
                              RngStream(23), sparsity=5)
    assert 0.0 < mu < 1.0


@pytest.mark.parametrize("sparsity", [1, 5, 128])
def test_incoherence_identity_has_the_bytes_of_the_eye(desk_net, sparsity):
    n = desk_net.output_dim
    mu = [incoherence_estimate(desk_net, b, 60, RngStream(24), sparsity=sparsity)
          for b in (None, np.eye(n))]
    assert np.float64(mu[0]).tobytes() == np.float64(mu[1]).tobytes()
    assert 0.0 < mu[0] <= 1.0


# --- metrics ------------------------------------------------------------


def trace_errors(x, x_star):
    """(per_pixel_error, sign_error) of a one-record trace at x; the trace
    is where the package computes its reconstruction metrics."""
    tb = _TraceBuilder(1, [x_star], len(x))
    tb.add(0.0, x)
    (trace,) = tb.build([x], [0])
    return trace.per_pixel_error[0], trace.sign_error[0]


def sign_invariant_dist(x1, x2):
    return trace_errors(x1, x2)[1]


def test_sign_invariant_dist_examples():
    x = RngStream(24).standard_normal(6)
    assert sign_invariant_dist(x, x) == 0.0
    assert sign_invariant_dist(x, -x) == 0.0
    assert sign_invariant_dist(np.array([1.0, 0.0]), np.array([0.0, 1.0])) \
        == pytest.approx(np.sqrt(2.0))


def test_sign_invariant_dist_symmetry_property():
    rng = RngStream(25)
    for _ in range(20):
        x1 = rng.standard_normal(5)
        x2 = rng.standard_normal(5)
        d = sign_invariant_dist(x1, x2)
        assert d == sign_invariant_dist(x2, x1)
        assert d == sign_invariant_dist(-x1, x2)
        assert d <= np.linalg.norm(x1 - x2) + 1e-15


def test_recon_error_is_per_pixel():
    x_hat = np.array([1.0, 2.0, 3.0, 4.0])
    x_star = np.array([1.0, 2.0, 3.0, 2.0])
    assert trace_errors(x_hat, x_star)[0] == pytest.approx(4.0 / 4.0)


# --- step-size windows --------------------------------------------------


def test_window_check_arithmetic():
    from genprior import SrecEstimate
    srec = SrecEstimate(gamma=1.0, rho=0.9, pairs_used=10)
    rep = step_size_window_check(srec, 0.75)
    assert rep.in_window
    assert rep.predicted_factor == pytest.approx(1.0 / 0.75 - 1.0)
    assert rep.rho_sq_ok
    rep2 = step_size_window_check(srec, 2.0)
    assert not rep2.in_window


def test_window_check_predicts_inf_when_eta_gamma_underflows():
    # eta * gamma rounds to 0 although both are positive: no factor to
    # divide by, so the predicted factor is +inf, not a ZeroDivisionError.
    from genprior import SrecEstimate
    srec = SrecEstimate(gamma=0.25, rho=0.5, pairs_used=3)
    rep = step_size_window_check(srec, 5e-324)
    assert rep.predicted_factor == float("inf")
    assert not rep.in_window and rep.rho_sq_ok


def test_window_check_rejects_zero_gamma():
    from genprior import SrecEstimate
    with pytest.raises(ValueError):
        step_size_window_check(SrecEstimate(gamma=0.0, rho=0.0, pairs_used=1), 0.5)


@pytest.mark.parametrize("eta", [float("nan"), float("inf")])
def test_window_check_rejects_non_finite_eta(eta):
    # Unchecked, nan gave predicted_factor nan and inf gave -1.0.
    from genprior import SrecEstimate
    srec = SrecEstimate(gamma=1.0, rho=0.9, pairs_used=10)
    with pytest.raises(ValueError, match="positive and finite"):
        step_size_window_check(srec, eta)


def test_contraction_bound_general_picks_active_branch():
    from genprior import RscRssEstimate
    lo = RscRssEstimate(alpha=1.0, beta=1.3, samples=10)
    bound, active = contraction_bound_general(lo)
    assert bound == pytest.approx(0.7) and active == "two_minus_ratio"
    hi = RscRssEstimate(alpha=1.0, beta=1.8, samples=10)
    bound, active = contraction_bound_general(hi)
    assert bound == pytest.approx(0.8) and active == "ratio_minus_one"


def test_contraction_bound_mismatch_reduces_at_zero_mu():
    from genprior import RscRssEstimate
    est = RscRssEstimate(alpha=1.0, beta=1.5, samples=10)
    assert contraction_bound_mismatch(est, 0.0) == pytest.approx(2 - 1.5)
    assert contraction_bound_mismatch(est, 0.3) > 2 - 1.5
    with pytest.raises(ValueError):
        contraction_bound_mismatch(est, 1.0)


def test_window_joint_with_planted_run(desk_net):
    # Fitted contraction sits at or below the window's prediction (+0.1)
    # when the step size is chosen inside the sampled window.
    from genprior import (ProjectionConfig, SolverConfig, pgd_linear)
    from conftest import planted_linear

    _, x_star, a, y = planted_linear(desk_net, 64, seed=0)
    srec = empirical_srec(a, desk_net, 15, RngStream(0, spawn_key=(910,)))
    lo, hi = 1 / (2 * srec.gamma), min(1 / srec.gamma, 1 / srec.rho**2)
    assert hi > lo
    eta = 0.5 * (lo + hi)
    cfg = SolverConfig(outer_steps=15, step_size=eta,
                       projection=ProjectionConfig(inner_steps=200, inner_rate=0.05),
                       seed=0, ground_truth=x_star)
    _, trace = pgd_linear(y, a, desk_net, cfg)
    rep = step_size_window_check(srec, eta)
    assert rep.in_window and rep.rho_sq_ok
    assert convergence_rate(trace, 1e-8) <= rep.predicted_factor + 0.1
