"""Approximate Euclidean projection onto the range of a generator.

The oracle runs gradient descent over the latent space on the inner loss
||x - G(z)||^2 and returns the best iterate seen anywhere along the
trajectory (the last iterate can overshoot on nonconvex inner landscapes).
The achieved squared distance is reported as ``residual`` so callers can
audit how close to an exact projection the oracle got; there is no
certified approximation guarantee for nonconvex generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import _backward, _forward_cached, forward
from .numerics import as_vector

__all__ = [
    "ProjectionConfig",
    "ProjectionResult",
    "project",
    "brute_force_project",
]

INIT_MODES = ("zero", "random", "warm")


@dataclass(frozen=True)
class ProjectionConfig:
    """Inner-loop control for the projection oracle."""

    inner_steps: int = 200
    inner_rate: float = 0.01
    restarts: int = 1
    # Random init by default: relu stacks without biases have a dead latent
    # gradient at z = 0, so a zero start can never leave the origin.
    init: str = "random"
    warm_z: np.ndarray | None = None

    def __post_init__(self):
        if self.inner_steps < 1:
            raise ValueError("inner_steps must be >= 1")
        if self.inner_rate <= 0:
            raise ValueError("inner_rate must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.init not in INIT_MODES:
            raise ValueError(f"unknown init mode {self.init!r}")
        if self.init == "warm" and self.warm_z is None:
            raise ValueError("init='warm' needs warm_z")


@dataclass(frozen=True)
class ProjectionResult:
    z_hat: np.ndarray
    x_proj: np.ndarray  # forward(G, z_hat), cached
    residual: float     # ||x - x_proj||^2


def _residual(x, gx):
    d = x - gx
    return float(d @ d)


def project(net, x, cfg, rng):
    """Best range point found by ``cfg.restarts`` inner descents.

    Restart 0 starts from cfg.init (zero, a fresh random draw, or the
    supplied warm latent); every further restart starts from an
    independent N(0, I_k) draw.  Ties in residual resolve to the lowest
    restart index, then to the earliest iterate, so the result is
    deterministic given (rng state, cfg).  Raises ``ValueError`` when no
    iterate of any restart lies at a finite distance from ``x``.
    """
    x = as_vector(x, "x")
    if x.shape[0] != net.output_dim:
        raise ValueError(
            f"x length {x.shape[0]} does not match generator n={net.output_dim}"
        )
    k = net.latent_dim

    best_res = np.inf
    best_z = None
    best_gx = None
    # A diverging restart overflows (then meets inf - inf) before the
    # finiteness check below drops it.
    with np.errstate(over="ignore", invalid="ignore"):
        for restart in range(cfg.restarts):
            if restart == 0 and cfg.init == "zero":
                z = np.zeros(k)
            elif restart == 0 and cfg.init == "warm":
                z = as_vector(cfg.warm_z, "warm_z").copy()
            else:
                z = rng.standard_normal(k)
            for step in range(cfg.inner_steps + 1):
                if step:
                    z = z - cfg.inner_rate * _backward(net, acts, 2.0 * (gx - x))
                gx, acts = _forward_cached(net, z)
                if not np.all(np.isfinite(gx)):
                    break  # diverged; the best seen so far stands
                res = _residual(x, gx)
                if res < best_res:
                    best_res, best_z, best_gx = res, z.copy(), gx
    if best_z is None:
        raise ValueError(
            "projection found no range point at a finite distance from x "
            "(x too large, or inner_rate diverges)"
        )
    return ProjectionResult(z_hat=best_z, x_proj=best_gx, residual=best_res)


def brute_force_project(net, x, grid_bounds, grid_points_per_dim):
    """Exhaustive lattice search over the latent box; test oracle.

    Guarded to k <= 3: the lattice has points_per_dim**k nodes.  Returns
    the lattice minimizer (first hit wins on exact ties).
    """
    x = as_vector(x, "x")
    k = net.latent_dim
    if k > 3:
        raise ValueError(f"brute force projection is limited to k <= 3, got k={k}")
    lo, hi = float(grid_bounds[0]), float(grid_bounds[1])
    pts = int(grid_points_per_dim)
    if pts < 2:
        raise ValueError("need at least 2 grid points per dimension")
    axes = [np.linspace(lo, hi, pts)] * k
    mesh = np.meshgrid(*axes, indexing="ij")
    zs = np.stack([m.ravel() for m in mesh], axis=1)  # (pts**k, k)
    xs = forward(net, zs)
    res = np.sum((xs - x[None, :]) ** 2, axis=1)
    idx = int(np.argmin(res))
    return ProjectionResult(z_hat=zs[idx], x_proj=xs[idx], residual=float(res[idx]))
