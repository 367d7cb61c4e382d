import numpy as np
import pytest

from genprior import (
    MeasurementModel,
    Objective,
    ProjectionConfig,
    RngStream,
    SolverConfig,
    csgm_baseline,
    dpr_baseline,
    eps_pgd,
    forward,
    gaussian_matrix,
    myopic_eps_pgd,
    observe,
    pgd_linear,
    phase_init,
    phase_pgd,
)
from genprior import objectives, solvers
from genprior.objectives import sign_pm
from genprior.solvers import _TraceBuilder, _thresh
from conftest import identity_generator, planted_linear, relu_unit_net


def desk_cfg(seed, x_star=None, eta=0.7, outer=15, inner=200, rate=0.05,
             restarts=1):
    return SolverConfig(
        outer_steps=outer, step_size=eta,
        projection=ProjectionConfig(inner_steps=inner, inner_rate=rate,
                                    restarts=restarts),
        seed=seed, ground_truth=x_star)


@pytest.mark.parametrize("records", [1, 64, 150])
def test_trace_builder_blocks_match_per_step_errors(records):
    # Every error value must keep the bits of computing it from its own
    # step's iterate, and be written by that step's ``add``.  The second
    # cell has no ground truth.
    rng = RngStream(31)
    x_star = rng.standard_normal((3, 7))
    x_star[1] = np.nan
    xs = rng.standard_normal((records, 3, 7))
    objs = rng.standard_normal((records, 3))
    tb = _TraceBuilder(records, [x_star[0], None, x_star[2]], 7)
    for t in range(records):
        tb.add(objs[t], xs[t], proj_residual=[t, np.nan, -t], phase_flips=2.0)
        d, s = xs[t] - x_star, xs[t] + x_star
        np.testing.assert_array_equal(  # per_pixel_error, sign_error of record t
            tb.cols[1:3, :, t],
            [[d[i] @ d[i] / 7 for i in range(3)],
             [min(np.sqrt(d[i] @ d[i]), np.sqrt(s[i] @ s[i])) for i in range(3)]])
    traces = tb.build(list(xs[-1]), [0] * 3)
    for i, trace in enumerate(traces):
        d, s = xs[:, i] - x_star[i], xs[:, i] + x_star[i]
        ppe = [d[t] @ d[t] / 7 for t in range(records)]
        sgn = [min(np.sqrt(d[t] @ d[t]), np.sqrt(s[t] @ s[t])) for t in range(records)]
        np.testing.assert_array_equal(trace.objective, objs[:, i])
        np.testing.assert_array_equal(trace.per_pixel_error, ppe)
        np.testing.assert_array_equal(trace.sign_error, sgn)
        np.testing.assert_array_equal(
            trace.proj_residual, [[t, np.nan, -t][i] for t in range(records)])
        np.testing.assert_array_equal(trace.phase_flips, np.full(records, 2.0))
    tb = _TraceBuilder(records, [None], 7)
    for t in range(records):
        tb.add(objs[t, 0], xs[t, 0])
    (trace,) = tb.build([xs[-1, 0]], [0])
    np.testing.assert_array_equal(trace.objective, objs[:, 0])
    assert np.isnan(trace.per_pixel_error).all() and np.isnan(trace.sign_error).all()


# --- pgd_linear ---------------------------------------------------------


def test_pgd_identity_converges_in_one_step():
    # A = I, G = identity, eta = 1: w0 = y, and the projection's one step
    # at rate 1/2 lands on it from its random start, up to rounding.
    net = identity_generator(5)
    y = RngStream(1).standard_normal(5)
    cfg = SolverConfig(outer_steps=1, step_size=1.0,
                       projection=ProjectionConfig(inner_steps=1, inner_rate=0.5),
                       seed=0, ground_truth=y)
    x_hat, trace = pgd_linear(y, np.eye(5), net, cfg)
    assert np.max(np.abs(x_hat - y)) < 1e-15
    assert trace.objective[-1] < 1e-28


def test_pgd_planted_recovery(desk_net):
    _, x_star, a, y = planted_linear(desk_net, 64, seed=0)
    _, trace = pgd_linear(y, a, desk_net, desk_cfg(0, x_star))
    assert trace.inner_updates == 3000
    assert trace.final_per_pixel_error < 1e-4


def test_pgd_trace_shape_and_determinism(desk_net):
    _, x_star, a, y = planted_linear(desk_net, 64, seed=1)
    cfg = desk_cfg(1, x_star, outer=5)
    x1, t1 = pgd_linear(y, a, desk_net, cfg)
    x2, t2 = pgd_linear(y, a, desk_net, cfg)
    assert len(t1) == 6
    assert np.array_equal(x1, x2)
    for col in ("objective", "per_pixel_error", "sign_error", "proj_residual"):
        assert np.array_equal(getattr(t1, col), getattr(t2, col),
                              equal_nan=True)
    assert np.all(np.isfinite(t1.objective))


def test_pgd_objective_contracts(desk_net):
    _, x_star, a, y = planted_linear(desk_net, 64, seed=2)
    _, trace = pgd_linear(y, a, desk_net, desk_cfg(2, x_star))
    f = trace.objective
    above = f > 1e-8
    ratios = [f[t + 1] / f[t] for t in range(len(f) - 1) if above[t] and above[t + 1]]
    assert np.median(ratios) < 0.9


# --- eps_pgd ------------------------------------------------------------


def test_eps_pgd_squared_equals_pgd_linear(desk_net):
    _, x_star, a, y = planted_linear(desk_net, 64, seed=3)
    cfg = desk_cfg(3, x_star)
    x_lin, t_lin = pgd_linear(y, a, desk_net, cfg)
    obj = Objective(model=MeasurementModel(matrix=a, link="linear"), y=y)
    x_eps, t_eps = eps_pgd(obj, desk_net, cfg)
    assert np.max(np.abs(x_lin - x_eps)) <= 1e-12
    assert np.max(np.abs(t_lin.objective - t_eps.objective)) <= 1e-12


def test_eps_pgd_rejects_phase_kind():
    a = np.eye(3)
    obj = Objective(model=MeasurementModel(matrix=a, link="magnitude"),
                    y=np.ones(3), phase=np.ones(3))
    with pytest.raises(ValueError):
        eps_pgd(obj, identity_generator(3), desk_cfg(0))


@pytest.mark.parametrize("solver", ["pgd_linear", "eps_pgd", "phase_pgd",
                                    "myopic_eps_pgd"])
def test_projected_solvers_reject_a_matrix_of_another_width(desk_net, solver):
    n = desk_net.output_dim
    a = np.eye(n + 1)[:16]
    cfg, x0 = desk_cfg(0), np.zeros(n)
    with pytest.raises(ValueError, match="does not match"):
        if solver == "phase_pgd":
            phase_pgd(np.ones(16), a, desk_net, cfg, x0)
        elif solver == "pgd_linear":
            pgd_linear(np.ones(16), a, desk_net, cfg)
        else:
            obj = Objective(MeasurementModel(matrix=a, link="linear"), np.ones(16))
            if solver == "eps_pgd":
                eps_pgd(obj, desk_net, cfg)
            else:
                myopic_eps_pgd(obj, desk_net, np.eye(n), 2, cfg)


def test_myopic_rejects_phase_kind():
    # Only phase_pgd cells re-bind or pin a phase.
    a = np.eye(3)
    obj = Objective(model=MeasurementModel(matrix=a, link="magnitude"),
                    y=np.ones(3), phase=np.ones(3))
    with pytest.raises(ValueError, match="phase_corrected"):
        myopic_eps_pgd(obj, identity_generator(3), a, 1, desk_cfg(0))


def sigmoid_instance(seed, k=4, hidden=(32,), n=32):
    from genprior import random_generator
    m = 4 * n
    net = random_generator(k, list(hidden), n, "relu", RngStream(7, spawn_key=(901,)))
    root = RngStream(seed)
    z_star = root.derive(0).standard_normal(k)
    x_star = forward(net, z_star)
    a = gaussian_matrix(m, n, 1.0 / m, root.derive(1, m))
    model = MeasurementModel(matrix=a, link="sigmoid")
    y = observe(model, x_star)
    return net, x_star, Objective(model, y)


def test_eps_pgd_sigmoid_planted_recovery():
    from genprior import rsc_rss_estimate
    errs = []
    for seed in range(3):
        net, x_star, obj = sigmoid_instance(seed)
        est = rsc_rss_estimate(obj, net, 100, RngStream(seed, spawn_key=(903,)))
        eta = 1.0 / est.beta  # sim_sigmoid gradient carries scale 1
        cfg = SolverConfig(outer_steps=25, step_size=eta,
                           projection=ProjectionConfig(inner_steps=200,
                                                       inner_rate=0.05),
                           seed=seed, ground_truth=x_star)
        _, trace = eps_pgd(obj, net, cfg)
        errs.append(trace.final_per_pixel_error)
    assert np.median(errs) < 1e-2


def test_eps_pgd_sinusoid_objective_decreases():
    from genprior import random_generator
    net = random_generator(4, [32], 32, "relu", RngStream(7, spawn_key=(901,)))
    root = RngStream(0)
    z_star = root.derive(0).standard_normal(4)
    x_star = forward(net, z_star)
    a = gaussian_matrix(128, 32, 1.0 / 128, root.derive(1, 128))
    model = MeasurementModel(matrix=a, link="sinusoid")
    obj = Objective(model, observe(model, x_star))
    cfg = SolverConfig(outer_steps=15, step_size=0.1,
                       projection=ProjectionConfig(inner_steps=200, inner_rate=0.05),
                       seed=0, ground_truth=x_star)
    _, trace = eps_pgd(obj, net, cfg)
    f = trace.objective
    for t in range(5):
        assert f[t + 1] < f[t]


# --- phase_pgd ----------------------------------------------------------


def phase_instance(desk_net, m, seed):
    _, x_star, a, _ = planted_linear(desk_net, m, seed)
    return x_star, a, np.abs(a @ x_star)


def test_phase_pgd_truth_is_fixed_point(desk_net):
    x_star, a, y = phase_instance(desk_net, 64, seed=4)
    cfg = desk_cfg(4, x_star, eta=0.9, outer=5, inner=300, rate=0.02, restarts=4)
    _, trace = phase_pgd(y, a, desk_net, cfg, x0=x_star)
    assert trace.sign_error[-1] <= 1e-3
    assert trace.objective[-1] <= 1e-4


def test_phase_pgd_oracle_phase_reduces_to_linear(desk_net):
    x_star, a, y = phase_instance(desk_net, 64, seed=5)
    p_star = sign_pm(a @ x_star)
    cfg = desk_cfg(5, x_star, eta=0.9)
    # phase_pgd's loop with the phase pinned to p* instead of re-bound.
    pinned = solvers._Cell(Objective(MeasurementModel(a, "magnitude"), y, phase=p_star),
                           cfg.step_size, 5, np.zeros(desk_net.output_dim), x_star)
    (t_ph,) = solvers._projected_descent(desk_net, [pinned], cfg.outer_steps,
                                         cfg.projection)
    x_ph = t_ph.x_hat
    x_lin, t_lin = pgd_linear(y * p_star, a, desk_net, cfg)
    assert np.max(np.abs(x_ph - x_lin)) <= 1e-12
    assert np.max(np.abs(t_ph.objective - t_lin.objective)) <= 1e-12
    assert np.all(t_ph.phase_flips == 0.0)  # a pinned phase never flips


def test_phase_pgd_rejects_negative_observations(desk_net):
    a = np.eye(desk_net.output_dim)[: 16]
    y = -np.ones(16)
    with pytest.raises(ValueError):
        phase_pgd(y, a, desk_net, desk_cfg(0), x0=np.zeros(desk_net.output_dim))


def test_phase_pgd_local_contraction_single_seed(desk_net):
    x_star, a, y = phase_instance(desk_net, 64, seed=6)
    x0 = phase_init(y, a, desk_net, RngStream(6, spawn_key=(904,)),
                    strategy="oracle_perturb", delta0=0.1, x_star=x_star)
    cfg = desk_cfg(6, x_star, eta=0.9, outer=50)
    _, trace = phase_pgd(y, a, desk_net, cfg, x0)
    d = trace.sign_error
    assert np.min(d) < 1e-3
    ratios = [d[t + 1] / d[t] for t in range(len(d) - 1) if d[t] >= 1e-3]
    assert max(ratios) <= 0.95


def test_phase_pgd_sign_symmetric_error_trace(desk_net):
    # Same observations, ground truth relabeled -x*: the sign-invariant
    # error column must be identical.
    x_star, a, y = phase_instance(desk_net, 64, seed=7)
    x0 = phase_init(y, a, desk_net, RngStream(7, spawn_key=(904,)),
                    strategy="best_of_samples", count=20)
    cfg_pos = desk_cfg(7, x_star, eta=0.9, outer=10)
    cfg_neg = desk_cfg(7, -x_star, eta=0.9, outer=10)
    _, t_pos = phase_pgd(y, a, desk_net, cfg_pos, x0)
    _, t_neg = phase_pgd(y, a, desk_net, cfg_neg, x0)
    assert np.array_equal(t_pos.sign_error, t_neg.sign_error)


def test_phase_flip_column_counts_changes(desk_net):
    x_star, a, y = phase_instance(desk_net, 48, seed=8)
    x0 = phase_init(y, a, desk_net, RngStream(8, spawn_key=(904,)),
                    strategy="best_of_samples", count=20)
    _, trace = phase_pgd(y, a, desk_net, desk_cfg(8, x_star, eta=0.9, outer=10), x0)
    flips = trace.phase_flips
    assert flips[0] == 0.0
    assert np.all(flips >= 0.0) and np.all(flips <= a.shape[0])


def _phase_loss_calls(desk_net, monkeypatch, ms):
    # Loss evaluations of phase_pgd on the first cell alone, then of one
    # lockstep group of cells with the given measurement counts.
    calls = []
    loss_terms = objectives._loss_terms

    def counted(kind, u, y, phase=None):
        calls.append(kind)
        return loss_terms(kind, u, y, phase)

    for module in (objectives, solvers):
        monkeypatch.setattr(module, "_loss_terms", counted)
    x0 = np.zeros(desk_net.output_dim)
    cells = []
    for seed, m in zip((8, 9), ms):
        x_star, a, y = phase_instance(desk_net, m, seed=seed)
        cfg = desk_cfg(seed, x_star, eta=0.9, outer=6, inner=20)
        cells.append(solvers._Cell(Objective(MeasurementModel(a, "magnitude"), y), 0.9,
                                   seed, x0, x_star))
    phase_pgd(y, a, desk_net, cfg, x0)
    alone = list(calls)
    calls.clear()
    solvers._projected_descent(desk_net, cells, cfg.outer_steps, cfg.projection)
    return alone, list(calls)


def test_phase_pgd_measures_each_iterate_once(desk_net, monkeypatch):
    # One u = A x per iterate gives its loss, the next gradient step and its
    # phase flips: outer_steps + 1 loss evaluations per cell alone, and per
    # lockstep group of cells with equal m.
    alone, group = _phase_loss_calls(desk_net, monkeypatch, (48, 48))
    assert alone == ["phase_corrected"] * 7
    assert group == ["phase_corrected"] * 7


def test_phase_pgd_measures_each_iterate_once_per_m_run(desk_net, monkeypatch):
    # Cells with different m stack in separate runs, one evaluation per
    # iterate for each run.
    alone, group = _phase_loss_calls(desk_net, monkeypatch, (48, 40))
    assert alone == ["phase_corrected"] * 7
    assert group == ["phase_corrected"] * 2 * 7


# --- phase_init ---------------------------------------------------------


def test_phase_init_oracle_zero_perturbation(desk_net):
    x_star, a, y = phase_instance(desk_net, 32, seed=9)
    x0 = phase_init(y, a, desk_net, RngStream(9), strategy="oracle_perturb",
                    delta0=0.0, x_star=x_star)
    assert np.array_equal(x0, x_star)


def test_phase_init_oracle_perturbation_radius(desk_net):
    x_star, a, y = phase_instance(desk_net, 32, seed=10)
    x0 = phase_init(y, a, desk_net, RngStream(10), strategy="oracle_perturb",
                    delta0=0.1, x_star=x_star)
    assert np.linalg.norm(x0 - x_star) == pytest.approx(
        0.1 * np.linalg.norm(x_star), rel=1e-12)


def test_phase_init_oracle_requires_truth(desk_net):
    x_star, a, y = phase_instance(desk_net, 32, seed=11)
    with pytest.raises(ValueError):
        phase_init(y, a, desk_net, RngStream(11), strategy="oracle_perturb",
                   delta0=0.1)


def unit_latent_draw(net, rng):
    """G(z / ||z||) for one z ~ N(0, I_k): one best_of_samples draw."""
    z = rng.standard_normal(net.latent_dim)
    return forward(net, z / np.linalg.norm(z))


@pytest.mark.parametrize("scale, count, match", [
    (1.0, 0, "count >= 1"), (1e300, 3, "finite misfit")])
def test_phase_init_raises_without_a_finite_sample(desk_net, scale, count, match):
    # It returned None here (no sample, or every misfit overflowed), and
    # phase_pgd then failed with "x0 must be 1-D".
    _, a, y = phase_instance(desk_net, 32, seed=12)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=match):
        phase_init(y, scale * a, desk_net, RngStream(12), count=count)


def test_phase_init_single_sample_matches_sample_range(desk_net):
    x_star, a, y = phase_instance(desk_net, 32, seed=12)
    x0 = phase_init(y, a, desk_net, RngStream(12), strategy="best_of_samples",
                    count=1)
    assert np.array_equal(x0, unit_latent_draw(desk_net, RngStream(12)))


def test_phase_init_many_samples_beat_median_single(desk_net):
    # best_of_samples(200) yields lower initial loss than the median single
    # draw, across 10 seeds.
    def loss(y, a, x):
        r = y - np.abs(a @ x)
        return float(r @ r)

    wins = 0
    for seed in range(10):
        x_star, a, y = phase_instance(desk_net, 48, seed=100 + seed)
        best = phase_init(y, a, desk_net, RngStream(seed, spawn_key=(904,)),
                          strategy="best_of_samples", count=200)
        singles = [loss(y, a, unit_latent_draw(desk_net,
                                               RngStream(seed, spawn_key=(904, j))))
                   for j in range(21)]
        wins += loss(y, a, best) < np.median(singles)
    assert wins == 10


# --- hard thresholding in a basis ---------------------------------------


def test_thresh_identity_basis_keeps_largest():
    out = _thresh(np.array([3.0, -5.0, 1.0]), np.eye(3), 1)
    assert np.array_equal(out, np.array([0.0, -5.0, 0.0]))


def test_thresh_full_sparsity_returns_unchanged():
    w = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(_thresh(w, np.eye(3), 3), w)
    assert np.array_equal(_thresh(w, np.eye(3), 7), w)


def test_thresh_tie_breaks_toward_lowest_index():
    out = _thresh(np.array([2.0, -2.0]), np.eye(2), 1)
    assert np.array_equal(out, np.array([2.0, 0.0]))


def test_thresh_zero_sparsity_is_zero():
    assert np.array_equal(_thresh(np.ones(4), np.eye(4), 0), np.zeros(4))


def test_thresh_rejects_non_orthonormal():
    # The basis is checked once per solve, where myopic_eps_pgd takes it.
    b = np.eye(3)
    b[0, 1] = 1e-3
    obj = Objective(MeasurementModel(np.eye(3), "linear"), np.ones(3))
    with pytest.raises(ValueError, match="not orthonormal"):
        myopic_eps_pgd(obj, identity_generator(3), b, 1, desk_cfg(0))


# Signed zeros and ties: the product with the eye turns each -0.0 into +0.0,
# so np.array_equal (which takes -0.0 == +0.0) cannot tell the two paths
# apart; their bytes can.
SIGNED_W = np.array([-0.0, 3.0, -3.0, 0.0, -0.0, 2.0, -2.0, 3.0,
                     -0.0, 0.0, 1.0, -0.0, 0.0, -0.0, -1.0, -0.0])


@pytest.mark.parametrize("l", [0, 1, 8, 16, 17])
def test_thresh_identity_has_the_bytes_of_the_eye(l):
    n = SIGNED_W.shape[0]
    out = _thresh(SIGNED_W, None, l)
    assert out.tobytes() == _thresh(SIGNED_W, np.eye(n), l).tobytes()
    if l == 8:  # seven nonzeros, then w[0] = -0.0 is kept: as +0.0
        assert np.count_nonzero(out) == 7
        assert np.signbit(SIGNED_W[0]) and not np.signbit(out[0])


def test_myopic_identity_solve_has_the_bytes_of_the_eye(desk_net):
    _, x_star, a, y = planted_linear(desk_net, 64, seed=17)
    obj = Objective(model=MeasurementModel(matrix=a, link="linear"), y=y)
    cfg = desk_cfg(17, x_star, eta=0.6, outer=6, inner=40)
    eye = myopic_eps_pgd(obj, desk_net, np.eye(desk_net.output_dim), 5, cfg)
    none = myopic_eps_pgd(obj, desk_net, None, 5, cfg)
    for got, want in zip(none[:3], eye[:3]):
        assert got.tobytes() == want.tobytes()
    assert none[3].objective.tobytes() == eye[3].objective.tobytes()
    assert none[3].per_pixel_error.tobytes() == eye[3].per_pixel_error.tobytes()


def test_thresh_sparsity_bound_in_rotated_basis():
    rng = RngStream(55)
    q, r = np.linalg.qr(rng.standard_normal((8, 8)))
    b = q * np.sign(np.diag(r))
    for l in range(9):
        out = _thresh(rng.standard_normal(8), b, l)
        coeffs = b.T @ out
        assert np.sum(np.abs(coeffs) > 1e-10) <= l


# --- myopic_eps_pgd -----------------------------------------------------


def mismatch_instance(seed, k=8, hidden=(64,), n=64, l=5, spike=10.0):
    from genprior import random_generator
    m = 4 * (k + l)
    net = random_generator(k, list(hidden), n, "relu", RngStream(7, spawn_key=(901,)))
    root = RngStream(seed)
    z_star = root.derive(0).standard_normal(k)
    xg = forward(net, z_star)
    srng = root.derive(2)
    support = srng.permutation(n)[:l]
    scale = spike * np.linalg.norm(xg) / np.sqrt(n)
    v_star = np.zeros(n)
    v_star[support] = scale * np.where(srng.standard_normal(l) >= 0, 1.0, -1.0)
    x_star = xg + v_star
    a = gaussian_matrix(m, n, 1.0 / m, root.derive(1, m))
    obj = Objective(MeasurementModel(matrix=a, link="linear"), a @ x_star)
    return net, x_star, v_star, support, obj


def test_myopic_zero_sparsity_reduces_to_eps_pgd(desk_net):
    _, x_star, a, y = planted_linear(desk_net, 64, seed=13)
    obj = Objective(model=MeasurementModel(matrix=a, link="linear"), y=y)
    cfg = desk_cfg(13, x_star, outer=8)
    x_eps, t_eps = eps_pgd(obj, desk_net, cfg)
    x_myo, u, v, t_myo = myopic_eps_pgd(obj, desk_net,
                                        np.eye(desk_net.output_dim), 0, cfg)
    assert np.max(np.abs(v)) == 0.0
    assert np.max(np.abs(x_eps - x_myo)) <= 1e-12
    assert np.max(np.abs(t_eps.objective - t_myo.objective)) <= 1e-12
    with pytest.raises(ValueError, match="sparsity level"):
        myopic_eps_pgd(obj, desk_net, np.eye(desk_net.output_dim), -1, cfg)


def test_myopic_planted_support_recovery_single_seed():
    net, x_star, v_star, support, obj = mismatch_instance(seed=1)
    cfg = SolverConfig(outer_steps=50, step_size=0.6,
                       projection=ProjectionConfig(inner_steps=200, inner_rate=0.05),
                       seed=1, ground_truth=x_star)
    x_hat, u_hat, v_hat, trace = myopic_eps_pgd(obj, net, np.eye(64), 5, cfg)
    assert set(np.nonzero(v_hat)[0]) == set(support)
    assert trace.final_per_pixel_error < 1e-2


def test_myopic_decomposition_invariants():
    net, x_star, v_star, support, obj = mismatch_instance(seed=1)
    cfg = SolverConfig(outer_steps=10, step_size=0.6,
                       projection=ProjectionConfig(inner_steps=100, inner_rate=0.05),
                       seed=1, ground_truth=x_star)
    x_hat, u_hat, v_hat, trace = myopic_eps_pgd(obj, net, np.eye(64), 5, cfg)
    assert len(trace) == 11
    assert np.sum(np.abs(v_hat) > 1e-12) <= 5
    assert np.array_equal(x_hat, u_hat + v_hat)
    # The extras carry the final blocks only.
    assert trace.extras.keys() == {"u", "v"}
    assert trace.extras["u"] is u_hat and trace.extras["v"] is v_hat


def test_myopic_spurious_innovation_is_small(desk_net):
    # In-range target with l = 5 allowed spikes: the sparse block must not
    # steal significant energy.
    norms = []
    for seed in range(5):
        _, x_star, a, y = planted_linear(desk_net, 64, seed=300 + seed)
        obj = Objective(model=MeasurementModel(matrix=a, link="linear"), y=y)
        cfg = desk_cfg(seed, x_star, eta=0.6, outer=30)
        x_hat, _, v_hat, _ = myopic_eps_pgd(obj, desk_net,
                                            np.eye(desk_net.output_dim), 5, cfg)
        norms.append(np.linalg.norm(v_hat) / max(np.linalg.norm(x_hat), 1e-12))
    assert np.median(norms) <= 0.1


# --- baselines ----------------------------------------------------------


def test_csgm_identity_case_solves_convex_problem():
    net = identity_generator(4)
    y = RngStream(70).standard_normal(4)
    x_hat, trace = csgm_baseline(y, np.eye(4), net, steps=3000, rate=0.01,
                                 rng=RngStream(71), x_star=y)
    assert np.max(np.abs(x_hat - y)) < 1e-10
    assert len(trace) == 3001
    assert trace.objective[-1] < 1e-20


def test_csgm_deterministic(desk_net):
    _, x_star, a, y = planted_linear(desk_net, 64, seed=14)
    t1 = csgm_baseline(y, a, desk_net, 100, 0.01, RngStream(14), x_star=x_star)[1]
    t2 = csgm_baseline(y, a, desk_net, 100, 0.01, RngStream(14), x_star=x_star)[1]
    assert np.array_equal(t1.objective, t2.objective)


def test_dpr_stationary_at_planted_latent(desk_net):
    z_star, x_star, a, _ = planted_linear(desk_net, 48, seed=15)
    y = np.abs(a @ x_star)
    x_hat, trace = dpr_baseline(y, a, desk_net, steps=50, rate=0.05,
                                rng=RngStream(15), x_star=x_star, z0=z_star)
    assert trace.objective[0] < 1e-24
    assert trace.objective[-1] < 1e-24
    assert np.max(np.abs(x_hat - x_star)) < 1e-10


@pytest.mark.parametrize("solver", [csgm_baseline, dpr_baseline])
def test_baseline_freezes_an_overflowed_latent(solver):
    # The projection's rule: from z = 1 (objective 1 against y = 0) the
    # first step overflows to z = -inf, where G = relu(z) = 0 would fit y
    # exactly.  The step is refused, so the latent stays at its start.
    x_hat, trace = solver(np.zeros(1), np.eye(1), relu_unit_net(), steps=3,
                          rate=1e308, rng=RngStream(0), z0=np.ones(1))
    assert np.array_equal(x_hat, [1.0])
    assert np.array_equal(trace.objective, [1.0, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("solver", [csgm_baseline, dpr_baseline])
def test_baseline_given_a_start_never_reads_its_rng(desk_net, solver):
    # A given z0 is the whole start: the call needs no random stream.
    _, x_star, a, y = planted_linear(desk_net, 32, seed=17)
    z0 = RngStream(17).standard_normal(desk_net.latent_dim)
    t1 = solver(np.abs(y), a, desk_net, 20, 0.01, None, x_star=x_star, z0=z0)[1]
    t2 = solver(np.abs(y), a, desk_net, 20, 0.01, RngStream(3), x_star=x_star,
                z0=z0)[1]
    assert t1.objective.tobytes() == t2.objective.tobytes()
    assert t1.x_hat.tobytes() == t2.x_hat.tobytes()


def test_dpr_rejects_negative_observations(desk_net):
    a = np.eye(desk_net.output_dim)[:8]
    with pytest.raises(ValueError):
        dpr_baseline(-np.ones(8), a, desk_net, 10, 0.05, RngStream(0))


def test_phase_pgd_needs_fewer_measurements_than_dpr(desk_net):
    # Direction check: smallest m in {2k, 4k, 8k} at which the median
    # sign-invariant error drops below 1e-3.
    k = desk_net.latent_dim
    grid = (2 * k, 4 * k, 8 * k)

    def med_err(solver, m):
        # The 5 seeds step as one lockstep group, with the bits of their own
        # phase_pgd or dpr_baseline runs (test_lockstep).
        cells = []
        for seed in range(5):
            x_star, a, y = phase_instance(desk_net, m, seed=400 + seed)
            if solver == "phase":
                x0 = phase_init(y, a, desk_net, RngStream(seed, spawn_key=(904,)),
                                strategy="best_of_samples", count=100)
                cells.append(solvers._Cell(
                    Objective(MeasurementModel(a, "magnitude"), y), 0.9, seed, x0,
                    x_star))
            else:
                rng = RngStream(seed, spawn_key=(905,))
                z0 = rng.standard_normal(k)
                z0 /= np.linalg.norm(z0)
                obj = Objective(MeasurementModel(a, "magnitude"), y)
                cells.append(solvers._Cell(obj, 0.05, seed, z0, x_star))
        if solver == "phase":
            traces = solvers._projected_descent(
                desk_net, cells, 50, ProjectionConfig(inner_steps=50, inner_rate=0.05))
        else:
            traces = solvers._latent_descent(desk_net, 2500, 0.05, cells)
        return float(np.median([tr.sign_error[-1] for tr in traces]))

    def first_m_reaching(solver):
        for m in grid:
            if med_err(solver, m) < 1e-3:
                return m
        return max(grid) + 1

    m_phase = first_m_reaching("phase")
    m_dpr = first_m_reaching("dpr")
    assert m_phase <= max(grid)
    assert m_phase < m_dpr


# --- config validation --------------------------------------------------


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(outer_steps=0)
    with pytest.raises(ValueError):
        SolverConfig(step_size=0.0)


@pytest.mark.parametrize("rate", [np.nan, np.inf, -0.01, 0.0])
def test_rates_must_be_positive_and_finite(desk_net, rate):
    # A NaN rate held every step (nan <= 0 is False) and a negative baseline
    # rate ascended the loss; both are refused at the API boundary.
    with pytest.raises(ValueError, match="step_size"):
        SolverConfig(step_size=rate)
    with pytest.raises(ValueError, match="inner_rate"):
        ProjectionConfig(inner_rate=rate)
    _, x_star, a, y = planted_linear(desk_net, 32, seed=0)
    for baseline, obs in ((csgm_baseline, y), (dpr_baseline, np.abs(y))):
        with pytest.raises(ValueError, match="rate"):
            baseline(obs, a, desk_net, 10, rate, RngStream(0))


# --- divergence guard ---------------------------------------------------


@pytest.mark.parametrize("solver", ["pgd_linear", "phase_pgd", "myopic_eps_pgd"])
def test_diverged_projection_holds_iterate(desk_net, solver):
    # eta = 1e300 keeps the gradient step finite, but every range point is
    # ~1e300 away from it, so the projection finds no finite residual.  The
    # solver must hold the iterate and mark the step, not fail.
    _, x_star, a, y = planted_linear(desk_net, 64, seed=16)
    cfg = desk_cfg(16, x_star, eta=1e300, outer=3, inner=5)
    x0 = np.zeros(desk_net.output_dim)
    if solver == "pgd_linear":
        x_hat, trace = pgd_linear(y, a, desk_net, cfg)
    elif solver == "phase_pgd":
        x_hat, trace = phase_pgd(np.abs(y), a, desk_net, cfg, x0)
    else:
        obj = Objective(MeasurementModel(matrix=a, link="linear"), y)
        x_hat, _, _, trace = myopic_eps_pgd(obj, desk_net,
                                            np.eye(desk_net.output_dim), 5, cfg)
    assert np.all(np.isfinite(x_hat))
    assert np.array_equal(x_hat, x0)
    assert len(trace) == 4
    assert np.all(np.isnan(trace.proj_residual[1:]))
    assert np.all(trace.objective == trace.objective[0])
