"""Approximate Euclidean projection onto the range of a generator.

The oracle runs gradient descent over the latent space on the inner loss
||x - G(z)||^2 and returns the best iterate seen anywhere along the
trajectory (the last iterate can overshoot on nonconvex inner landscapes).
The achieved squared distance is reported as ``residual`` so callers can
audit how close to an exact projection the oracle got; there is no
certified approximation guarantee for nonconvex generators.

Block shape: a lockstep group of S cells with R restarts each (``project``
is one cell; a sweep solver steps all its cells) projects as one (S, R, k)
latent block, never (S * R, k): the stacked layer products give every cell
the bits of its own ``project`` call, where one 2-D product over the rows
would not.  The one exception is S = R = 1, a default solve's projection,
which steps its latent as a vector (k,), with the same bits and less
per-call cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import _descend
from .numerics import as_vector

__all__ = [
    "ProjectionConfig",
    "ProjectionResult",
    "project",
]

INIT_MODES = ("zero", "random")


@dataclass(frozen=True)
class ProjectionConfig:
    """Inner-loop control for the projection oracle."""

    inner_steps: int = 200
    inner_rate: float = 0.01
    restarts: int = 1
    # Random init by default: relu stacks without biases have a dead latent
    # gradient at z = 0, so a zero start can never leave the origin.
    init: str = "random"

    def __post_init__(self):
        if self.inner_steps < 1:
            raise ValueError("inner_steps must be >= 1")
        if not 0 < self.inner_rate < np.inf:
            raise ValueError("inner_rate must be positive and finite")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.init not in INIT_MODES:
            raise ValueError(f"unknown init mode {self.init!r}")


@dataclass(frozen=True)
class ProjectionResult:
    z_hat: np.ndarray
    x_proj: np.ndarray  # forward(G, z_hat), cached
    residual: float     # ||x - x_proj||^2


def _start_block(cfg, k, rng, warm):
    """The (restarts, k) start block: row 0 from the warm latent (when not
    None) or from cfg.init, the other rows from one N(0, I) draw (the same
    bits as one draw per restart)."""
    z = np.empty((cfg.restarts, k))
    if warm is not None:
        z[0] = warm
    elif cfg.init == "zero":
        z[0] = 0.0
    else:
        z[0] = rng.standard_normal(k)
    if cfg.restarts > 1:
        z[1:] = rng.standard_normal((cfg.restarts - 1, k))
    return z


def _project_cells(net, xs, cfg, rngs, warms):
    """Project each ``xs[i]`` under one shared config, with its own stream
    and warm latent (None: start from cfg), as one (S, R, k) block, or as a
    vector for one cell with one restart.

    Each cell draws its start block from its own stream, and the S cells
    step together: stacked layer products, so every cell has the bits of
    its own descent.  Returns one ``ProjectionResult`` per cell, or None
    for a cell with no iterate at a finite distance from its x.
    """
    x = np.stack(xs)[:, None]
    z = np.stack([_start_block(cfg, net.latent_dim, rng, warm)
                  for rng, warm in zip(rngs, warms)])
    shape = z.shape
    if shape[:2] == (1, 1):
        # One cell with one restart steps as a vector, with the same bits:
        # numpy's per-call cost on (1, 1, k) arrays made each step of a
        # default-size projection 5-10% slower (2-vCPU Xeon, numpy 2.4).
        x, z = x[0, 0], z[0, 0]

    # A row's best stays at inf until it first improves; such rows are
    # never returned, so their zero iterates are placeholders.
    best_res = np.full(z.shape[:-1], np.inf)
    best_z, best_gx = z, np.zeros(z.shape[:-1] + (net.output_dim,))

    def measure(gx):
        e = gx - x
        return np.vecdot(e, e), 2.0 * e

    def visit(res, z, gx):
        nonlocal best_res, best_z, best_gx
        improved = res < best_res
        # count_nonzero is the cheapest test on a short mask.
        n_improved = np.count_nonzero(improved)
        if n_improved == improved.size:
            # z and gx are new arrays every step: hold references.
            best_res, best_z, best_gx = res, z, gx
        elif n_improved:
            best_res = np.where(improved, res, best_res)
            best_z = np.where(improved[..., None], z, best_z)
            best_gx = np.where(improved[..., None], gx, best_gx)

    _descend(net, z, cfg.inner_steps, cfg.inner_rate, measure, visit)
    best_res = best_res.reshape(shape[:2])
    best_z = best_z.reshape(shape)
    best_gx = best_gx.reshape(shape[:2] + (-1,))
    results = []
    for i, r in enumerate(np.argmin(best_res, axis=1)):  # lowest restart wins a tie
        results.append(ProjectionResult(z_hat=best_z[i, r], x_proj=best_gx[i, r],
                                        residual=float(best_res[i, r]))
                       if np.isfinite(best_res[i, r]) else None)
    return results


def project(net, x, cfg, rng):
    """Best range point found by ``cfg.restarts`` inner descents.

    Restart 0 starts from cfg.init (zero or a fresh random draw); every
    further restart starts from an independent N(0, I_k) draw.  The
    restarts step together as one (1, restarts, k) block (one restart as a
    vector), one forward and one backward layer sweep per step; each row
    keeps its own best iterate, and a row steps only while its latent and
    residual stay finite (it freezes at its last finite step), so ``z_hat``
    is always finite.  Ties in residual resolve to the lowest restart index,
    then to the earliest iterate, so the result is deterministic given (rng
    state, cfg).  Raises ``ValueError`` when no iterate of any restart lies
    at a finite distance from ``x``.
    """
    x = as_vector(x, "x")
    if x.shape[0] != net.output_dim:
        raise ValueError(
            f"x length {x.shape[0]} does not match generator n={net.output_dim}"
        )
    (res,) = _project_cells(net, [x], cfg, [rng], [None])
    if res is None:
        raise ValueError(
            "projection found no range point at a finite distance from x "
            "(x too large, or inner_rate diverges)"
        )
    return res
