"""Losses: closed-form spot checks, the finite-difference oracle, and the
phase-rebinding algebra (a phase_corrected objective without a phase
re-binds p = sign_pm(Ax) at every evaluation), through the loss table's
kernels ``_loss_terms`` and ``_adjoint``.

The finite-difference oracle differences the potential scale*F that
each kind's gradient is the exact gradient of (scale = 1/2 for the
squared-family kinds, 1 for the averaged sigmoid loss; the factor is
absorbed into the solvers' step sizes).
"""

from dataclasses import replace

import numpy as np
import pytest

from genprior import (
    GRADIENT_SCALE,
    MeasurementModel,
    Objective,
    RngStream,
    observe,
)
from genprior.objectives import sign_pm
from conftest import gradient_at, loss_at

KIND_LINK = {
    "squared": "linear",
    "sim_sigmoid": "sigmoid",
    "sinusoid_l2": "sinusoid",
    "phase_corrected": "magnitude",
}


def make_objective(kind, m, n, rng):
    a = rng.standard_normal((m, n)) / np.sqrt(m)
    model = MeasurementModel(matrix=a, link=KIND_LINK[kind])
    x_gen = rng.standard_normal(n)
    y = observe(model, x_gen)
    phase = None
    if kind == "phase_corrected":
        phase = sign_pm(rng.standard_normal(m))
    return Objective(model=model, y=y, phase=phase)


def fd_gradient(obj, x, h=1e-6):
    scale = GRADIENT_SCALE[obj.kind]
    g = np.zeros_like(x)
    for j in range(x.shape[0]):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = scale * (loss_at(obj, xp) - loss_at(obj, xm)) / (2 * h)
    return g


def test_squared_zero_at_exact_fit():
    rng = RngStream(1)
    a = rng.standard_normal((6, 4))
    x = rng.standard_normal(4)
    model = MeasurementModel(matrix=a, link="linear")
    obj = Objective(model=model, y=a @ x)
    assert loss_at(obj, x) == 0.0
    assert np.max(np.abs(gradient_at(obj, x))) < 1e-12


def test_sim_sigmoid_closed_form_at_origin():
    # y = 0.5 everywhere and x = 0: mean(softplus(0) - 0.5*0) = log 2.
    model = MeasurementModel(matrix=RngStream(2).standard_normal((5, 3)),
                             link="sigmoid")
    obj = Objective(model=model, y=np.full(5, 0.5))
    assert abs(loss_at(obj, np.zeros(3)) - np.log(2.0)) < 1e-15


def test_sim_sigmoid_zero_gradient_when_centered():
    model = MeasurementModel(matrix=np.zeros((4, 3)), link="sigmoid")
    obj = Objective(model=model, y=np.full(4, 0.5))
    assert np.max(np.abs(gradient_at(obj, np.ones(3)))) == 0.0


def test_phase_corrected_zero_at_truth():
    rng = RngStream(3)
    a = rng.standard_normal((8, 5))
    x_star = rng.standard_normal(5)
    y = np.abs(a @ x_star)
    obj = Objective(model=MeasurementModel(matrix=a, link="magnitude"),
                    y=y, phase=sign_pm(a @ x_star))
    assert loss_at(obj, x_star) < 1e-24


def test_kind_link_compatibility_enforced():
    # The kind follows the link, so no objective can pair a link with the
    # loss of another.
    for kind, link in KIND_LINK.items():
        model = MeasurementModel(matrix=np.eye(3), link=link)
        phase = np.ones(3) if kind == "phase_corrected" else None
        assert Objective(model=model, y=np.ones(3), phase=phase).kind == kind
    with pytest.raises(TypeError):
        Objective(model=MeasurementModel(matrix=np.eye(3), link="linear"),
                  y=np.ones(3), kind="sim_sigmoid")
    with pytest.raises(ValueError):
        Objective(model=MeasurementModel(matrix=np.eye(3), link="magnitude"),
                  y=np.ones(3), phase=np.array([1.0, 0.5, -1.0]))


@pytest.mark.parametrize("kind", list(KIND_LINK))
def test_gradient_matches_finite_differences(kind):
    rng = RngStream(1000)
    for trial in range(20):
        obj = make_objective(kind, m=30, n=20, rng=rng)
        x = rng.standard_normal(20)
        analytic = gradient_at(obj, x)
        fd = fd_gradient(obj, x)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(analytic - fd) / denom <= 1e-5


def test_rebind_same_phase_is_identity():
    # Without a phase, each evaluation binds p = sign_pm(Ax): the same bits
    # as pinning that phase, and the value is the phaseless misfit.
    rng = RngStream(5)
    pinned = make_objective("phase_corrected", 7, 4, rng)
    free = replace(pinned, phase=None)
    a = pinned.model.matrix
    for _ in range(5):
        x = rng.standard_normal(4)
        bound = replace(pinned, phase=sign_pm(a @ x))
        assert loss_at(free, x) == loss_at(bound, x)
        assert np.array_equal(gradient_at(free, x), gradient_at(bound, x))
        misfit = np.sum((free.y - np.abs(a @ x)) ** 2)
        assert abs(loss_at(free, x) - misfit) <= 1e-12 * max(1.0, misfit)


def test_rebind_true_phase_zeroes_loss_at_truth():
    rng = RngStream(6)
    a = rng.standard_normal((9, 5))
    x_star = rng.standard_normal(5)
    y = np.abs(a @ x_star)
    model = MeasurementModel(matrix=a, link="magnitude")
    pinned = Objective(model=model, y=y, phase=np.ones(9))
    assert loss_at(pinned, x_star) > 1e-6
    # Re-bound at the truth, the phase is the true one.
    assert loss_at(Objective(model=model, y=y), x_star) < 1e-24


def test_single_phase_flip_changes_value_by_closed_form():
    # Flipping entry i changes ||y*p - Ax||^2 by exactly 4 y_i p_i (Ax)_i,
    # verified against recomputation from scratch.
    rng = RngStream(7)
    obj = make_objective("phase_corrected", 10, 6, rng)
    x = rng.standard_normal(6)
    base = loss_at(obj, x)
    u = obj.model.matrix @ x
    for i in range(10):
        p_new = obj.phase.copy()
        p_new[i] = -p_new[i]
        delta = loss_at(replace(obj, phase=p_new), x) - base
        expected = 4.0 * obj.y[i] * obj.phase[i] * u[i]
        assert abs(delta - expected) < 1e-10 * max(1.0, abs(expected))


def test_rebind_phase_wrong_kind_rejected():
    obj = make_objective("squared", 5, 3, RngStream(8))
    with pytest.raises(ValueError, match="takes no phase"):
        replace(obj, phase=np.ones(5))


def test_nonnegative_values_for_l2_kinds():
    rng = RngStream(9)
    for kind in ("squared", "sinusoid_l2", "phase_corrected"):
        obj = make_objective(kind, 8, 5, rng)
        for _ in range(10):
            assert loss_at(obj, rng.standard_normal(5)) >= 0.0


def test_sim_sigmoid_bounded_below_and_midpoint_convex():
    # n=2 instance: grid minimum sits in the interior of the box and the
    # loss passes a numerical midpoint-convexity check.
    rng = RngStream(10)
    obj = make_objective("sim_sigmoid", 12, 2, rng)
    grid = np.linspace(-8.0, 8.0, 161)
    vals = np.array([[loss_at(obj, np.array([u, v])) for v in grid] for u in grid])
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    assert 0 < i < 160 and 0 < j < 160
    for _ in range(20):
        a = rng.standard_normal(2) * 4
        b = rng.standard_normal(2) * 4
        mid = loss_at(obj, (a + b) / 2)
        assert mid <= (loss_at(obj, a) + loss_at(obj, b)) / 2 + 1e-12


def test_linear_truth_is_gradient_fixed_point():
    rng = RngStream(11)
    a = rng.standard_normal((7, 4))
    x_star = rng.standard_normal(4)
    obj = Objective(model=MeasurementModel(matrix=a, link="linear"),
                    y=a @ x_star)
    step = x_star - 0.5 * gradient_at(obj, x_star)
    assert np.max(np.abs(step - x_star)) < 1e-12
