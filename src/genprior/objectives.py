"""Loss functions with analytic gradients, one per forward model.

Every loss is a function of the measurements u = Ax and is written once,
in ``_loss_terms``, which returns the loss F and its cotangent c.  The
solvers step along ``_adjoint`` of c, A.T c (divided by m for the averaged
sigmoid loss), which is the exact gradient of ``scale * F`` where ``scale``
comes from :data:`GRADIENT_SCALE`:

    kind             loss F                                  gradient            scale
    squared          ||y - Ax||^2                            A.T (Ax - y)        1/2
    sim_sigmoid      (1/m) sum softplus(a_i.x) - y_i a_i.x   (1/m) A.T (sigmoid(Ax) - y)   1
    sinusoid_l2      ||y - (Ax + sin Ax)||^2                 A.T [(1+cos Ax) * (Ax + sin Ax - y)]  1/2
    phase_corrected  ||y*p - Ax||^2                          A.T (Ax - y*p)      1/2
    magnitude        ||y - |Ax|||^2                          A.T [sign(Ax) * (|Ax| - y)]  1/2

The phase p of ``phase_corrected`` is either given, and stays pinned, or
None, and then p = sign_pm(Ax) is re-bound at every evaluation, so F is
the phaseless misfit sum (y_i - |(Ax)_i|)^2 at each x.  ``magnitude`` is
the same misfit for the DPR baseline and the phase initializer; it is no
objective kind.  Its subgradient of |u| at u = 0 is 0 (numpy's sign),
where ``phase_corrected`` with p = sign_pm(Ax) takes +1.

Dropping the factor 2 from the squared-family gradients makes the plain
descent step ``x - eta * A.T c`` equal to ``x + eta A.T (y - Ax)``, so the
published step sizes (eta = 0.5 linear, 0.9 phase) apply verbatim; the
constant is absorbed into eta.  Anything that needs the mathematically
paired gradient of F itself (curvature estimates, the latent baselines)
divides by ``scale``.

softplus is evaluated as log(1 + e^u) in the overflow-safe form
max(u, 0) + log1p(e^{-|u|}) via ``numpy.logaddexp``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurement import MeasurementModel, _sigmoid
from .numerics import as_vector

__all__ = [
    "GRADIENT_SCALE",
    "Objective",
]

# The solvers' gradient is the gradient of (scale * F); see module docstring.
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
    """The loss of a measurement model's link, bound to observations y.

    ``phase`` is a pinned +-1 phase vector, allowed only when the kind is
    "phase_corrected" (the magnitude link); None there re-binds p =
    sign_pm(Ax) at every evaluation.
    """

    model: MeasurementModel
    y: np.ndarray
    phase: np.ndarray | None = None

    def __post_init__(self):
        y = as_vector(self.y, "y")
        if y.shape[0] != self.model.num_measurements:
            raise ValueError(
                f"y length {y.shape[0]} does not match model m="
                f"{self.model.num_measurements}"
            )
        if self.phase is not None:
            if self.kind != "phase_corrected":
                raise ValueError(f"kind {self.kind!r} takes no phase vector")
            p = as_vector(self.phase, "phase")
            if p.shape[0] != y.shape[0]:
                raise ValueError("phase length does not match y")
            if not np.all(np.abs(p) == 1.0):
                raise ValueError("phase entries must be exactly +-1")
            object.__setattr__(self, "phase", p)
        object.__setattr__(self, "y", y)

    @property
    def kind(self):
        return KIND_FOR_LINK[self.model.link]


def sign_pm(u):
    """Entrywise sign with sign(0) = +1, so phase vectors are always +-1."""
    return np.where(np.asarray(u) >= 0.0, 1.0, -1.0)


def _bound_phase(phase, u):
    """The phase of a phase_corrected loss at u: pinned, else sign_pm(u)."""
    return sign_pm(u) if phase is None else phase


def _loss_terms(kind, u, y, phase=None):
    """(F, c) for measurement rows u of shape (m,) or (batch, m): the loss
    of each row and its cotangent, shaped like u.

    c is the derivative of scale * F with respect to u, times m for the
    averaged ``sim_sigmoid`` loss; ``_adjoint`` turns it into a gradient.
    """
    if kind == "squared":
        d = u - y
        return np.vecdot(d, d), d
    if kind == "sim_sigmoid":
        return (np.mean(np.logaddexp(0.0, u) - y * u, axis=-1),
                _sigmoid(u) - y)
    if kind == "sinusoid_l2":
        d = u + np.sin(u) - y
        return np.vecdot(d, d), (1.0 + np.cos(u)) * d
    if kind == "phase_corrected":
        d = u - y * _bound_phase(phase, u)
        return np.vecdot(d, d), d
    if kind == "magnitude":
        d = np.abs(u) - y
        return np.vecdot(d, d), np.sign(u) * d
    raise ValueError(f"unknown loss kind {kind!r}")


def _apply(a, x):
    """A x for each row of x; ``a`` is one (m, n) matrix or a stack of them
    with the leading axes of x.  A stacked matrix-vector product, so every
    row has the bits of its own ``A @ x``."""
    return np.matmul(a, x[..., None])[..., 0]


def _adjoint(kind, a, c):
    """The gradient A.T c of each cotangent row (divided by m for the
    averaged sigmoid loss), with every row's bits of its own A.T @ c."""
    g = _apply(a.mT, c)
    return g / a.shape[-2] if kind == "sim_sigmoid" else g
