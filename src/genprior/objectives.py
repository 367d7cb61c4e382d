"""Loss functions with analytic gradients, one per forward model.

Reported values and gradients follow the conventions below.  F denotes the
reported ``value``; the gradient is the exact gradient of ``scale * F``
where ``scale`` comes from :data:`GRADIENT_SCALE`:

    kind             value F                                 gradient            scale
    squared          ||y - Ax||^2                            A.T (Ax - y)        1/2
    sim_sigmoid      (1/m) sum softplus(a_i.x) - y_i a_i.x   (1/m) A.T (sigmoid(Ax) - y)   1
    sinusoid_l2      ||y - (Ax + sin Ax)||^2                 A.T [(1+cos Ax) * (Ax + sin Ax - y)]  1/2
    phase_corrected  ||y*p - Ax||^2                          A.T (Ax - y*p)      1/2

Dropping the factor 2 from the squared-family gradients makes the plain
descent step ``x - eta * gradient(x)`` equal to ``x + eta A.T (y - Ax)``,
so the published step sizes (eta = 0.5 linear, 0.9 phase) apply verbatim;
the constant is absorbed into eta.  Anything that needs the mathematically
paired gradient of F itself (finite-difference checks, curvature
estimates) divides by ``scale``.

softplus is evaluated as log(1 + e^u) in the overflow-safe form
max(u, 0) + log1p(e^{-|u|}) via ``numpy.logaddexp``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .measurement import MeasurementModel, _sigmoid
from .numerics import as_vector

__all__ = [
    "KINDS",
    "GRADIENT_SCALE",
    "KIND_FOR_LINK",
    "Objective",
    "objective_for",
    "value",
    "gradient",
    "true_gradient",
    "rebind_phase",
]

KINDS = ("squared", "sim_sigmoid", "sinusoid_l2", "phase_corrected")

# gradient == grad of (scale * value); see module docstring.
GRADIENT_SCALE = {
    "squared": 0.5,
    "sim_sigmoid": 1.0,
    "sinusoid_l2": 0.5,
    "phase_corrected": 0.5,
}

KIND_FOR_LINK = {
    "linear": "squared",
    "sigmoid": "sim_sigmoid",
    "sinusoid": "sinusoid_l2",
    "magnitude": "phase_corrected",
}


@dataclass(frozen=True)
class Objective:
    """A loss F bound to a measurement model and observations y.

    ``phase`` is the current +-1 phase vector, required exactly when
    kind == "phase_corrected".
    """

    model: MeasurementModel
    y: np.ndarray
    kind: str
    phase: np.ndarray | None = None

    def __post_init__(self):
        y = as_vector(self.y, "y")
        if self.kind not in KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if KIND_FOR_LINK[self.model.link] != self.kind:
            raise ValueError(
                f"objective kind {self.kind!r} is incompatible with link "
                f"{self.model.link!r}"
            )
        if y.shape[0] != self.model.num_measurements:
            raise ValueError(
                f"y length {y.shape[0]} does not match model m="
                f"{self.model.num_measurements}"
            )
        if self.kind == "phase_corrected":
            if self.phase is None:
                raise ValueError("phase_corrected objective needs a phase vector")
            p = as_vector(self.phase, "phase")
            if p.shape[0] != y.shape[0]:
                raise ValueError("phase length does not match y")
            if not np.all(np.abs(p) == 1.0):
                raise ValueError("phase entries must be exactly +-1")
            object.__setattr__(self, "phase", p)
        elif self.phase is not None:
            raise ValueError(f"kind {self.kind!r} takes no phase vector")
        object.__setattr__(self, "y", y)

    @property
    def scale(self):
        return GRADIENT_SCALE[self.kind]

    def value(self, x):
        return value(self, x)

    def gradient(self, x):
        return gradient(self, x)


def objective_for(model, y, phase=None):
    """Build the objective kind matching the model's link."""
    return Objective(model=model, y=y, kind=KIND_FOR_LINK[model.link], phase=phase)


def _measurements(obj, x):
    x = as_vector(x, "x")
    if x.shape[0] != obj.model.signal_dim:
        raise ValueError(
            f"x length {x.shape[0]} does not match model n={obj.model.signal_dim}"
        )
    return obj.model.matrix @ x


def value(obj, x):
    """Scalar loss F(x); see the module docstring for each kind's formula."""
    u = _measurements(obj, x)
    if obj.kind == "squared":
        r = obj.y - u
        return float(r @ r)
    if obj.kind == "sim_sigmoid":
        softplus = np.logaddexp(0.0, u)
        return float(np.mean(softplus - obj.y * u))
    if obj.kind == "sinusoid_l2":
        r = obj.y - (u + np.sin(u))
        return float(r @ r)
    # phase_corrected
    r = obj.y * obj.phase - u
    return float(r @ r)


def gradient(obj, x):
    """Gradient of scale*F; the step x - eta*gradient matches the solvers'
    published update rules."""
    u = _measurements(obj, x)
    a = obj.model.matrix
    if obj.kind == "squared":
        return a.T @ (u - obj.y)
    if obj.kind == "sim_sigmoid":
        return a.T @ (_sigmoid(u) - obj.y) / obj.model.num_measurements
    if obj.kind == "sinusoid_l2":
        return a.T @ ((1.0 + np.cos(u)) * (u + np.sin(u) - obj.y))
    # phase_corrected
    return a.T @ (u - obj.y * obj.phase)


def true_gradient(obj, x):
    """Exact gradient of the reported value F (gradient / scale)."""
    return gradient(obj, x) / GRADIENT_SCALE[obj.kind]


def rebind_phase(obj, p_new):
    """Same objective with the phase vector replaced."""
    if obj.kind != "phase_corrected":
        raise ValueError(f"cannot rebind phase on kind {obj.kind!r}")
    return replace(obj, phase=p_new)
