"""Forward observation models.

A model is a dense matrix A together with a link applied entrywise to Ax:

    linear     y = Ax
    sinusoid   y = Ax + sin(Ax)
    sigmoid    y = 1 / (1 + exp(-Ax))
    magnitude  y = |Ax|

The magnitude model keeps no phase information; recovering the signs is the
solver's job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix, as_real, as_vector

__all__ = ["LINKS", "MeasurementModel", "observe", "observe_noisy"]

LINKS = ("linear", "sinusoid", "sigmoid", "magnitude")


@dataclass(frozen=True)
class MeasurementModel:
    matrix: np.ndarray  # A, shape (m, n)
    link: str

    def __post_init__(self):
        a = as_matrix(self.matrix, "measurement matrix")
        if self.link not in LINKS:
            raise ValueError(f"unknown link {self.link!r}")
        object.__setattr__(self, "matrix", a)

    @property
    def num_measurements(self):
        return self.matrix.shape[0]

    @property
    def signal_dim(self):
        return self.matrix.shape[1]


def _sigmoid(u):
    """Logistic function 1 / (1 + e^{-u}); exp overflow for u << 0 gives 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-u))


def apply_link(link, u):
    if link == "linear":
        return u
    if link == "sinusoid":
        return u + np.sin(u)
    if link == "sigmoid":
        return _sigmoid(u)
    if link == "magnitude":
        return np.abs(u)
    raise ValueError(f"unknown link {link!r}")


def observe(model, x):
    """Clean measurements: the link applied entrywise to Ax."""
    x = as_vector(x, "x", model.signal_dim)
    return apply_link(model.link, model.matrix @ x)


def observe_noisy(model, x, noise_std, rng):
    """Measurements with additive i.i.d. Gaussian(0, noise_std^2) noise;
    raises ValueError when the noise overflows them."""
    noise_std = as_real(noise_std, "noise_std", low=0)
    y = observe(model, x)
    if noise_std == 0:
        return y
    with np.errstate(over="ignore"):  # refused just below
        y = y + noise_std * rng.standard_normal(model.num_measurements)
    if not np.all(np.isfinite(y)):
        raise ValueError(f"noise_std {noise_std!r} gives measurements that are "
                         f"not finite")
    return y
