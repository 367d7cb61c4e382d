import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import genprior
from genprior import MeasurementModel, RngStream, observe, observe_noisy


def test_linear_identity():
    model = MeasurementModel(matrix=np.eye(2), link="linear")
    x = np.array([1.0, -2.0])
    assert np.array_equal(observe(model, x), x)


def test_magnitude_identity():
    model = MeasurementModel(matrix=np.eye(2), link="magnitude")
    assert np.array_equal(observe(model, np.array([1.0, -2.0])),
                          np.array([1.0, 2.0]))


def test_sigmoid_of_zero_matrix_is_half():
    model = MeasurementModel(matrix=np.zeros((3, 2)), link="sigmoid")
    assert np.array_equal(observe(model, np.ones(2)), np.full(3, 0.5))


def test_sinusoid_fixes_origin():
    rng = RngStream(4)
    model = MeasurementModel(matrix=rng.standard_normal((5, 3)), link="sinusoid")
    assert np.array_equal(observe(model, np.zeros(3)), np.zeros(5))


def test_unknown_link_rejected():
    with pytest.raises(ValueError):
        MeasurementModel(matrix=np.eye(2), link="cubic")


def test_dimension_mismatch_rejected():
    model = MeasurementModel(matrix=np.eye(3), link="linear")
    with pytest.raises(ValueError):
        observe(model, np.ones(4))


def test_magnitude_sign_invariance():
    rng = RngStream(9)
    model = MeasurementModel(matrix=rng.standard_normal((6, 4)), link="magnitude")
    for _ in range(20):
        x = rng.standard_normal(4)
        assert np.array_equal(observe(model, x), observe(model, -x))


def test_sigmoid_strictly_inside_unit_interval():
    # Strict bounds hold wherever float64 can represent them (|Ax| < ~36;
    # beyond that the closed interval is the best the arithmetic allows).
    rng = RngStream(10)
    model = MeasurementModel(matrix=rng.standard_normal((8, 5)), link="sigmoid")
    for scale in (1.0, 8.0):
        y = observe(model, scale * rng.standard_normal(5))
        assert np.all(y > 0.0) and np.all(y < 1.0)
    y = observe(model, 1000.0 * rng.standard_normal(5))
    assert np.all(y >= 0.0) and np.all(y <= 1.0)


def test_noisy_zero_std_equals_clean():
    rng = RngStream(12)
    model = MeasurementModel(matrix=rng.standard_normal((7, 3)), link="linear")
    x = rng.standard_normal(3)
    assert np.array_equal(observe_noisy(model, x, 0.0, RngStream(1)),
                          observe(model, x))


def test_noisy_reproducible_and_std_calibrated():
    rng = RngStream(13)
    model = MeasurementModel(matrix=rng.standard_normal((1000, 3)), link="linear")
    x = rng.standard_normal(3)
    y1 = observe_noisy(model, x, 0.1, RngStream(5))
    y2 = observe_noisy(model, x, 0.1, RngStream(5))
    assert np.array_equal(y1, y2)
    noise = y1 - observe(model, x)
    assert abs(np.std(noise) - 0.1) < 0.1 * 0.1


def test_negative_noise_std_rejected():
    model = MeasurementModel(matrix=np.eye(2), link="linear")
    with pytest.raises(ValueError):
        observe_noisy(model, np.ones(2), -0.1, RngStream(0))


def test_import_does_not_load_scipy():
    # The sigmoid link is plain numpy; importing the package must not pull
    # in scipy (it used to dominate the import time).
    src = str(Path(genprior.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, genprior; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
