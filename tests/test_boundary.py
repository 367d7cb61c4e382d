"""Every public entry point refuses a malformed count, length, width or
magnitude with a ValueError that names the argument, before any descent
step: a count that is not an integer is never truncated, and an array of
the wrong size never reaches numpy's matmul or the trace's error columns.
"""

from types import SimpleNamespace

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
    empirical_srec,
    estimate_diameter,
    forward,
    gaussian_matrix,
    incoherence_estimate,
    myopic_eps_pgd,
    pgd_linear,
    phase_init,
    projection,
    random_generator,
    rsc_rss_estimate,
    solvers,
)
from genprior.numerics import blas_threads
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
