"""Approximate Euclidean projection onto the range of a generator.

The oracle runs gradient descent over the latent space on the inner loss
||x - G(z)||^2 and returns the best iterate seen anywhere along the
trajectory (the last iterate can overshoot on nonconvex inner landscapes).
It answers with one row per cell of three arrays: the latents, their range
points and the squared distances achieved (inf where no range point was
finite), so callers can audit how close to an exact projection the oracle
got; there is no certified approximation guarantee for nonconvex
generators.

Restart 0 starts from the solvers' warm latent (the last outer step's
latent) when it has one, and every other start is its own N(0, I_k) draw
from the cell's stream; ties in residual go to the lowest restart, then to
the earliest iterate.

Block shape: a lockstep group of S cells with R restarts each (a solve is
one cell; a sweep solver steps all its cells) projects as one (S, R, k)
latent block, never (S * R, k): the stacked layer products give every cell
the bits of its own one-cell block, where one 2-D product over the rows
would not.  The one exception is S = R = 1, a default solve's projection,
which steps its latent as a vector (k,), with the same bits and less
per-call cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import _descend
from .numerics import as_count, as_real

__all__ = ["ProjectionConfig"]


@dataclass(frozen=True)
class ProjectionConfig:
    """Inner-loop control for the projection oracle."""

    inner_steps: int = 200
    inner_rate: float = 0.01
    restarts: int = 1

    def __post_init__(self):
        as_count(self.inner_steps, "inner_steps")
        as_count(self.restarts, "restarts")
        as_real(self.inner_rate, "inner_rate", low=0, strict=True)


def _start_block(cfg, k, rng, warm):
    """The (restarts, k) start block: row 0 the warm latent, or when it is
    None one N(0, I) draw; the other rows one N(0, I) draw (the same bits as
    one draw per restart)."""
    z = np.empty((cfg.restarts, k))
    z[0] = rng.standard_normal(k) if warm is None else warm
    if cfg.restarts > 1:
        z[1:] = rng.standard_normal((cfg.restarts - 1, k))
    return z


def _project_cells(net, xs, cfg, rngs, warms):
    """Project each ``xs[i]`` under one shared config, with its own stream
    and warm latent (None: a random start), as one (S, R, k) block, or as a
    vector for one cell with one restart.

    Each cell draws its start block from its own stream, and the S cells
    step together: stacked layer products, so every cell has the bits of
    its own descent.  Returns the block's answer as arrays: each cell's
    best latent z (S, k), its range point G(z) (S, n) and its residual
    ||x - G(z)||^2 (S,), which is inf for a cell with no iterate at a
    finite distance from its x.
    """
    x = np.stack(xs)[:, None]
    z = np.stack([_start_block(cfg, net.latent_dim, rng, warm)
                  for rng, warm in zip(rngs, warms)])
    shape = z.shape
    if shape[:2] == (1, 1):
        # One cell with one restart steps as a vector, with the same bits and
        # less per-call cost: 58.8-64.0 us per default step, 60.6-66.1 us as a
        # (1, 1, k) block (the vector won 30 of 40 rounds in each of 3
        # interleaved in-process A/Bs; 2-vCPU Xeon, numpy 2.4).
        x, z = x[0, 0], z[0, 0]

    # A row's best stays at inf until it first improves; such a row is
    # returned only with its inf, so its iterates are placeholders.
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
    cells = np.arange(shape[0])
    won = np.argmin(best_res, axis=1)  # the lowest restart wins a tie
    return (best_z.reshape(shape)[cells, won],
            best_gx.reshape(shape[:2] + (-1,))[cells, won], best_res[cells, won])
