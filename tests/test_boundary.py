"""Every public entry point refuses a malformed count, length, width,
magnitude or real scalar with a ValueError that names the argument, before
any descent step: a count that is not an integer is never truncated, an
array of the wrong size never reaches numpy's matmul or the trace's error
columns, and a real that is not finite never scales an output.
"""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from genprior import (
    GeneratorNet,
    Layer,
    MeasurementModel,
    Objective,
    ProjectionConfig,
    RngStream,
    RscRssEstimate,
    SolverConfig,
    SrecEstimate,
    contraction_bound_mismatch,
    convergence_rate,
    csgm_baseline,
    dpr_baseline,
    empirical_srec,
    estimate_diameter,
    forward,
    gaussian_matrix,
    incoherence_estimate,
    myopic_eps_pgd,
    observe_noisy,
    pgd_linear,
    phase_init,
    projection,
    random_generator,
    rsc_rss_estimate,
    solvers,
    step_size_window_check,
)
from genprior.numerics import as_real, blas_threads
from conftest import random_net

K, N, M = 3, 12, 8


def instance():
    """A small net, a planted x*, an M x N matrix a, a matrix one column
    too wide, and the linear and magnitude observations of x* through a."""
    net = random_net(5, k=K, hidden=(10,), n=N)
    rng = RngStream(5)
    x = forward(net, rng.standard_normal(K))
    a = gaussian_matrix(M, N, 1.0 / M, rng.derive(1))
    wide = gaussian_matrix(M, N + 1, 1.0 / M, rng.derive(2))
    return SimpleNamespace(net=net, x=x, a=a, wide=wide, y=a @ x, ym=np.abs(a @ x))


def cfg(outer=2, inner=3, restarts=1, seed=0, x_star=None):
    return SolverConfig(outer_steps=outer, step_size=0.5, seed=seed,
                        projection=ProjectionConfig(inner_steps=inner,
                                                    restarts=restarts),
                        ground_truth=x_star)


def linear(a, y):
    return Objective(MeasurementModel(a, "linear"), y)


# (case, a pattern of the message that names the argument, the call)
CASES = [
    # Counts: at the parent a float either ran truncated (2.5 as 2) or
    # died with TypeError inside a loop.
    ("outer_steps", "outer_steps",
     lambda p: pgd_linear(p.y, p.a, p.net, cfg(outer=2.5))),
    ("inner_steps", "inner_steps",
     lambda p: pgd_linear(p.y, p.a, p.net, cfg(inner=2.5))),
    ("restarts", "restarts",
     lambda p: pgd_linear(p.y, p.a, p.net, cfg(restarts=1.5))),
    ("solver_seed", "seed", lambda p: pgd_linear(p.y, p.a, p.net, cfg(seed=1.5))),
    ("csgm_steps", "steps",
     lambda p: csgm_baseline(p.y, p.a, p.net, 2.5, 0.01, RngStream(0))),
    ("phase_init_count", "count",
     lambda p: phase_init(p.ym, p.a, p.net, RngStream(0), count=2.5)),
    ("srec_num_pairs", "num_pairs",
     lambda p: empirical_srec(p.a, p.net, 2.5, RngStream(0))),
    ("rsc_num_pairs", "num_pairs",
     lambda p: rsc_rss_estimate(linear(p.a, p.y), p.net, 2.5, RngStream(0))),
    ("incoherence_num_samples", "num_samples",
     lambda p: incoherence_estimate(p.net, np.eye(N), 2.5, RngStream(0))),
    ("incoherence_sparsity", "sparsity",
     lambda p: incoherence_estimate(p.net, np.eye(N), 5, RngStream(0),
                                    sparsity=1.5)),
    ("myopic_l", "sparsity level l",
     lambda p: myopic_eps_pgd(linear(p.a, p.y), p.net, np.eye(N), 2.5, cfg())),
    ("diameter_num_samples", "num_samples",
     lambda p: estimate_diameter(p.net, 2.0, RngStream(0))),
    ("stream_seed", "seed", lambda p: RngStream(2.0)),
    ("stream_spawn_key", "spawn_key", lambda p: RngStream(0, (1.5,))),
    ("matrix_rows", "^m must", lambda p: gaussian_matrix(2.5, N, 1.0, RngStream(0))),
    ("hidden_dims", "hidden_dims",
     lambda p: random_generator(K, (10.5,), N, "relu", RngStream(0))),
    ("blas_threads", "^n must", lambda p: blas_threads(2.5)),
    # Lengths: at the parent a wrong ground truth failed with a numpy
    # broadcast error in the trace, after the solve; a wrong z0 in matmul.
    ("pgd_ground_truth", "ground_truth",
     lambda p: pgd_linear(p.y, p.a, p.net, cfg(x_star=p.x[:-1]))),
    ("csgm_ground_truth", "ground_truth",
     lambda p: csgm_baseline(p.y, p.a, p.net, 3, 0.01, RngStream(0),
                             x_star=p.x[:-1])),
    ("dpr_z0", "z0",
     lambda p: dpr_baseline(p.ym, p.a, p.net, 3, 0.01, RngStream(0),
                            z0=np.zeros(K + 1))),
    # Widths: at the parent these failed inside numpy's matmul.
    ("csgm_width", "A width",
     lambda p: csgm_baseline(p.y, p.wide, p.net, 3, 0.01, RngStream(0))),
    ("phase_init_width", "A width",
     lambda p: phase_init(p.ym, p.wide, p.net, RngStream(0), count=3)),
    ("srec_width", "A width", lambda p: empirical_srec(p.wide, p.net, 5, RngStream(0))),
    ("rsc_width", "A width",
     lambda p: rsc_rss_estimate(linear(p.wide, p.y), p.net, 5, RngStream(0))),
    ("incoherence_width", "B width",
     lambda p: incoherence_estimate(p.net, np.eye(N + 1), 5, RngStream(0))),
    # Magnitudes: at the parent a magnitude Objective took a negative y.
    ("negative_magnitude", "observations y",
     lambda p: Objective(MeasurementModel(p.a, "magnitude"), -p.ym)),
    # Reals: at the parent a string or None rate or scale died with
    # TypeError, a NaN variance, noise level or start radius came back as
    # non-finite arrays, and a negative start radius was taken.
    ("step_size", "step_size", lambda p: SolverConfig(step_size="0.5")),
    ("inner_rate", "inner_rate", lambda p: ProjectionConfig(inner_rate=None)),
    ("csgm_rate", "rate",
     lambda p: csgm_baseline(p.y, p.a, p.net, 3, "0.1", RngStream(0))),
    ("window_eta", "eta",
     lambda p: step_size_window_check(SrecEstimate(gamma=1.0, rho=0.5, pairs_used=10),
                                      "0.5")),
    ("noise_std", "noise_std",
     lambda p: observe_noisy(MeasurementModel(p.a, "linear"), p.x, "0.1",
                             RngStream(0))),
    ("noise_std_nan", "noise_std",
     lambda p: observe_noisy(MeasurementModel(p.a, "linear"), p.x, np.nan,
                             RngStream(0))),
    ("weight_scale", "weight_scale",
     lambda p: random_generator(K, (10,), N, "relu", RngStream(0), weight_scale="1")),
    ("bias_scale", "bias_scale",
     lambda p: random_generator(K, (10,), N, "relu", RngStream(0), bias_scale="1")),
    ("variance_nan", "variance", lambda p: gaussian_matrix(2, 3, np.nan, RngStream(0))),
    ("delta0_nan", "delta0",
     lambda p: phase_init(p.ym, p.a, p.net, RngStream(0), "oracle_perturb",
                          delta0=np.nan, x_star=p.x)),
    ("delta0_negative", "delta0",
     lambda p: phase_init(p.ym, p.a, p.net, RngStream(0), "oracle_perturb",
                          delta0=-1.0, x_star=p.x)),
    # Finite reals whose output overflows: the noisy measurements and the
    # oracle start used to come back with infinite entries, after an
    # overflow RuntimeWarning.
    ("noise_std_overflow", "^noise_std",
     lambda p: observe_noisy(MeasurementModel(np.eye(100), "linear"), np.ones(100),
                             1e308, RngStream(0))),
    ("delta0_overflow", "^delta0",
     lambda p: phase_init(p.ym, p.a, p.net, RngStream(0), "oracle_perturb",
                          delta0=1e308, x_star=10 * p.x)),
    # The diagnostics' scalars: a NaN floor used to be reported as too few
    # records above it, a string mu died with TypeError, and a NaN gamma
    # gave a NaN predicted factor.
    ("floor_nan", "^floor",
     lambda p: convergence_rate(SimpleNamespace(objective=np.geomspace(1, 1e-6, 8)),
                                np.nan)),
    ("mu", "^mu",
     lambda p: contraction_bound_mismatch(RscRssEstimate(1.0, 1.5, 10), "0.1")),
    ("window_gamma_nan", "^gamma",
     lambda p: step_size_window_check(SrecEstimate(np.nan, 1.0, 5), 0.5)),
    # A Python bool is an int and a Real to Python: True used to run as one
    # outer step, one inner step, one pair or a step size of 1.
    ("outer_steps_bool", "^outer_steps must be an integer, got True$",
     lambda p: pgd_linear(p.y, p.a, p.net, cfg(outer=True))),
    ("inner_steps_bool", "^inner_steps must be an integer",
     lambda p: ProjectionConfig(inner_steps=True)),
    ("srec_num_pairs_bool", "^num_pairs must be an integer",
     lambda p: empirical_srec(p.a, p.net, True, RngStream(0))),
    ("step_size_bool", "^step_size must be positive and finite, got True$",
     lambda p: SolverConfig(step_size=True)),
    ("csgm_rate_bool", "^rate must be",
     lambda p: csgm_baseline(p.y, p.a, p.net, 3, True, RngStream(0))),
]


@pytest.mark.parametrize("match, call", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_bad_argument_raises_value_error_naming_it(monkeypatch, match, call):
    def no_descent(*args):
        raise AssertionError("a descent step ran")

    monkeypatch.setattr(projection, "_descend", no_descent)
    monkeypatch.setattr(solvers, "_descend", no_descent)
    with pytest.raises(ValueError, match=match):
        call(instance())


def test_a_real_passes_its_rule_unchanged():
    # Python and numpy reals keep their bits; an int beyond the float range
    # is refused like any other real that is not finite.
    for v in (0.1, np.float64(0.1), 5e-324, 3, np.float64(1e308)):
        assert as_real(v, "v", low=0, strict=True) is v
    with pytest.raises(ValueError, match="^v must be finite, got 1000"):
        as_real(10**400, "v")


# G(z) = (1e308 z, z) overflows for |z| > 1.8, so some of 100 sampled range
# points are infinite.  At the parent empirical_srec returned gamma = nan,
# incoherence_estimate returned nan, and rsc_rss_estimate failed on the
# overflow warning (the suite turns warnings into errors).
OVERFLOW_NET = GeneratorNet((Layer([[1e308], [1.0]], [0.0, 0.0], "identity"),))


@pytest.mark.parametrize("estimate", [
    lambda net: empirical_srec(np.eye(2), net, 50, RngStream(0)),
    lambda net: rsc_rss_estimate(linear(np.eye(2), np.zeros(2)), net, 50,
                                 RngStream(0)),
    lambda net: incoherence_estimate(net, None, 50, RngStream(0)),
], ids=["srec", "rsc_rss", "incoherence"])
def test_estimates_refuse_a_range_that_overflows(estimate):
    with pytest.raises(ValueError, match="^range points contain non-finite entries$"):
        estimate(OVERFLOW_NET)


# Every range point of these nets is finite, but the pairs are far apart:
# on the 1e200 net ||x1 - x2||^2 overflows; on the 1e150 net it does not,
# but under A = 1e10 I the S-REC ratio's norm and the loss values do.  At
# the parent each estimate returned NaN (or, for the S-REC, inf), with
# overflow RuntimeWarnings, and incoherence_estimate returned 0.
FAR_NET, WIDE_NET = (GeneratorNet((Layer([[s], [1.0]], [0.0, 0.0], "identity"),))
                     for s in (1e200, 1e150))


@pytest.mark.parametrize("estimate, message", [
    (lambda: empirical_srec(np.eye(2), FAR_NET, 50, RngStream(0)),
     "range pair distances are not finite"),
    (lambda: rsc_rss_estimate(linear(np.eye(2), np.zeros(2)), FAR_NET, 50,
                              RngStream(0)),
     "range pair distances are not finite"),
    (lambda: incoherence_estimate(FAR_NET, None, 50, RngStream(0)),
     "range pair distances are not finite"),
    (lambda: empirical_srec(1e10 * np.eye(2), WIDE_NET, 50, RngStream(0)),
     "S-REC ratios are not finite"),
    (lambda: rsc_rss_estimate(linear(1e10 * np.eye(2), np.zeros(2)), WIDE_NET, 50,
                              RngStream(0)),
     "curvature quotients are not finite"),
], ids=["srec_distance", "rsc_rss_distance", "incoherence_distance", "srec_ratio",
        "rsc_rss_quotient"])
def test_estimates_refuse_a_statistic_that_overflows(estimate, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning fails the case
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate()
