"""Projected-gradient solvers and latent-descent baselines.

Every projected solver runs one loop, ``_projected_descent``: a gradient
step on the data-fit loss, then an approximate projection back onto the
feasible set, x <- P(x - eta * gradient(x)).  The solvers differ only in
what they hand that loop:

* ``pgd_linear``      the squared loss of linear measurements;
* ``eps_pgd``         any smooth objective (the linear solver is its
                      squared-loss special case);
* ``phase_pgd``       the ``phase_corrected`` loss of magnitude-only
                      measurements, with the phase p = sign(Ax) (sign(0) =
                      +1) re-bound at each iterate, and a start point;
* ``myopic_eps_pgd``  a sparse block: the feasible set becomes Range(G) plus
                      the vectors l-sparse in an ortho-basis B, and both
                      blocks step with the same gradient before their
                      respective projections.

Two latent-space descent baselines, ``csgm_baseline`` and ``dpr_baseline``,
optimize over z directly, on the loss their link picks in ``_LATENT_LOSS``.

Every solver emits a :class:`SolveTrace` with one record per iterate
(including the initial point) and is bitwise deterministic given its inputs
and config.  The projection carries its latent warm start from one outer
iteration to the next.  A diverged step (non-finite gradient step, or a
projection that found no finite range point) holds the iterate and records
``proj_residual = NaN``.  The projection and the baselines descend in z
through ``generator._descend``, where a diverging latent freezes.

Both loops step a lockstep group of S ``_Cell`` records (a sweep steps
every (m, seed) cell of a solver together), take the group's shared
settings as arguments and each cell's own settings in its cell, and each
public solver is the one-cell case (every projected one built by
``_solve_one``).  In ``_projected_descent`` every cell keeps its own
measurements, gradient step, hold, phase, threshold and random stream, and
the projections of one outer step run as one ``_project_cells`` block.
``_latent_descent`` steps an (S, 1, k) latent block from the cells' x0,
measures each run of cells with equal m against its stacked (s, 1, m, n)
sensing matrices, and freezes a diverged cell alone.  Stacked
matrix-vector products give every cell the bits of its own run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .generator import _descend, forward
from .measurement import MeasurementModel
from .numerics import (RngStream, _check_orthonormal, _combination, _coordinates,
                       as_count, as_matrix, as_real, as_vector)
from .objectives import (
    Objective,
    _adjoint,
    _apply,
    _bound_phase,
    _loss_terms,
)
from .projection import ProjectionConfig, _project_cells

__all__ = [
    "SolverConfig",
    "SolveTrace",
    "pgd_linear",
    "eps_pgd",
    "phase_pgd",
    "phase_init",
    "myopic_eps_pgd",
    "csgm_baseline",
    "dpr_baseline",
]


@dataclass(frozen=True)
class SolverConfig:
    outer_steps: int = 15
    step_size: float = 0.5
    projection: ProjectionConfig = field(default_factory=ProjectionConfig)
    seed: int = 0
    ground_truth: np.ndarray | None = None  # x*, trace enrichment only

    def __post_init__(self):
        as_count(self.outer_steps, "outer_steps")
        as_real(self.step_size, "step_size", low=0, strict=True)


@dataclass
class SolveTrace:
    """Per-iteration records; arrays all have length outer_steps + 1.

    Columns without a defined value for a given solver or instance (no
    ground truth, no projection at t=0, non-phase problem) hold NaN.
    """

    objective: np.ndarray
    per_pixel_error: np.ndarray   # ||x_t - x*||^2 / n
    sign_error: np.ndarray        # min(||x_t - x*||, ||x_t + x*||)
    proj_residual: np.ndarray
    phase_flips: np.ndarray
    x_hat: np.ndarray
    inner_updates: int
    extras: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.objective)

    @property
    def final_objective(self):
        return float(self.objective[-1])

    @property
    def final_per_pixel_error(self):
        return float(self.per_pixel_error[-1])


_TRACE_COLUMNS = ("objective", "per_pixel_error", "sign_error", "proj_residual",
                  "phase_flips")
# The loss a latent baseline descends, by its cells' link: CSGM, DPR.
_LATENT_LOSS = {"linear": "squared", "magnitude": "magnitude"}


class _TraceBuilder:
    """Per-step records of a lockstep block of cells, each with its ground
    truth of length n or None.

    ``add`` takes each cell's objective and iterate (the iterates with
    leading cell axes) and, optionally, both each cell's projection residual
    and its phase flips (one value for all cells, or one per cell); ``build``
    makes one trace per cell.  Each of the ``records`` steps is written into one
    (columns, cells, records) NaN buffer, and each trace column is a
    contiguous view of it: a latent baseline records thousands of steps,
    and one small array per value, or a copy per column, would hold several
    times the memory.  ``add`` writes a step's error columns from its own
    iterate, which no record keeps.
    """

    def __init__(self, records, x_stars, n):
        self.cols = np.full((len(_TRACE_COLUMNS), len(x_stars), records), np.nan)
        self.x_star = None
        if any(x is not None for x in x_stars):
            self.x_star = np.stack([as_vector(x, "ground_truth", n) if x is not None
                                    else np.full(n, np.nan) for x in x_stars])
        self.steps = 0

    def add(self, objective, x, proj_residual=None, phase_flips=None):
        t = self.steps
        self.cols[0, :, t] = np.ravel(objective)
        if proj_residual is not None:  # else both stay NaN, as in a latent loop
            self.cols[3, :, t], self.cols[4, :, t] = proj_residual, phase_flips
        if self.x_star is not None:
            x = x.reshape(self.x_star.shape)
            # Row-wise dot products have the bits of each row's own d @ d.
            d, s = x - self.x_star, x + self.x_star
            dd = np.vecdot(d, d)
            self.cols[1, :, t] = dd / x.shape[-1]
            self.cols[2, :, t] = np.minimum(np.sqrt(dd), np.sqrt(np.vecdot(s, s)))
        self.steps += 1

    def build(self, x_hats, inner_updates, extras=None):
        """One SolveTrace per cell, from the cells' final iterates,
        inner-update counts and (optional) extras."""
        return [SolveTrace(x_hat=x_hat, inner_updates=inner,
                           extras=extras[i] if extras else {},
                           **dict(zip(_TRACE_COLUMNS, self.cols[:, i])))
                for i, (x_hat, inner) in enumerate(zip(x_hats, inner_updates))]


class _Cell(NamedTuple):
    """One solve of a lockstep group: its objective, gradient step and
    projection stream seed, a start point (a signal, None: 0; a baseline's
    is its start latent) and an optional ground truth for the trace.  The
    latent loop reads neither ``step_size`` nor ``seed``."""

    obj: Objective
    step_size: float
    seed: int
    x0: np.ndarray | None = None
    x_star: np.ndarray | None = None


def _projected_descent(net, cells, outer_steps, proj, sparse=None):
    """The one outer loop, x <- P(x - eta * gradient(x)), over a group of
    cells in lockstep; returns one trace per cell.

    The cells share ``outer_steps`` and the ProjectionConfig ``proj``.
    Each cell starts from its x0 (default 0) and keeps its own gradient
    step, hold, phase, threshold, RngStream and warm latent; the
    projections of one outer step run as one ``_project_cells`` block, so
    every cell has the bits of running alone.  One u = A x per
    iterate gives its loss F, the cotangent of the next step and its phase
    flips.  P projects onto Range(G); with ``sparse = (B, l)`` the feasible
    set is Range(G) + {l-sparse in B}, each iterate is split as x = u + v,
    and both blocks step with the same gradient before u is projected and v
    is hard-thresholded (the extras hold the final blocks).  A cell whose
    gradient step or projection is not finite holds its iterate and records
    proj_residual = NaN.
    """
    n = net.output_dim
    for c in cells:
        as_matrix(c.obj.model.matrix, "A", cols=n)
    us = [np.zeros(n) if c.x0 is None else c.x0 for c in cells]
    vs = None if sparse is None else [np.zeros(n) for _ in cells]
    z_prev = [None] * len(cells)
    rngs = [RngStream(c.seed) for c in cells]
    tb = _TraceBuilder(outer_steps + 1, [c.x_star for c in cells], n)
    phases = [None] * len(cells)  # each phase_corrected cell's phase at its iterate
    flips = [np.nan] * len(cells)
    inner = [0] * len(cells)
    residual = [np.nan] * len(cells)
    for t in range(outer_steps + 1):
        xs = us if vs is None else [u + v for u, v in zip(us, vs)]
        losses, moves = [], []  # moves: (cell, w_u, w_v) of each finite step
        for i, c in enumerate(cells):
            o, p = c.obj, None
            u = o.model.matrix @ xs[i]
            if o.kind == "phase_corrected":
                p = _bound_phase(o.phase, u)
                flips[i] = 0.0 if phases[i] is None else float(np.sum(p != phases[i]))
                phases[i] = p
            f, cot = _loss_terms(o.kind, u, o.y, p)
            losses.append(f)
            if t == outer_steps:
                continue
            # An overflowing step is held by the finiteness check below.
            with np.errstate(over="ignore", invalid="ignore"):
                step = c.step_size * _adjoint(o.kind, o.model.matrix, cot)
                wu = us[i] - step
                wv = None if vs is None else vs[i] - step
            if np.all(np.isfinite(wu)) and (wv is None or np.all(np.isfinite(wv))):
                inner[i] += proj.restarts * proj.inner_steps
                moves.append((i, wu, wv))
        tb.add(losses, np.stack(xs), proj_residual=residual, phase_flips=flips)
        if t == outer_steps:
            break
        residual = [np.nan] * len(cells)  # stays NaN on a held (diverged) step
        block = _project_cells(
            net, [wu for _, wu, _ in moves], proj, [rngs[i] for i, _, _ in moves],
            [z_prev[i] for i, _, _ in moves]) if moves else ((), (), ())
        for (i, _, wv), z, gx, res in zip(moves, *block):
            if not np.isfinite(res):
                continue  # no finite range point: hold the iterate
            us[i], z_prev[i], residual[i] = gx, z, res
            if wv is not None:
                vs[i] = _thresh(wv, *sparse)
    extras = None if vs is None else [{"u": u, "v": v} for u, v in zip(us, vs)]
    return tb.build(xs, inner, extras)


def _solve_one(net, cfg, obj, x0=None, sparse=None):
    """The trace of one public projected solve from x0 (None: 0): ``cfg``
    unpacked into a group of one cell."""
    cell = _Cell(obj, cfg.step_size, cfg.seed, x0, cfg.ground_truth)
    (trace,) = _projected_descent(net, [cell], cfg.outer_steps, cfg.projection,
                                  sparse)
    return trace


def eps_pgd(obj, net, cfg):
    """Projected gradient descent on a smooth objective over Range(G)."""
    if obj.kind == "phase_corrected":
        raise ValueError("eps_pgd does not handle phase_corrected; use phase_pgd")
    trace = _solve_one(net, cfg, obj)
    return trace.x_hat, trace


def pgd_linear(y, a, net, cfg):
    """Projected gradient descent for linear measurements y = A x*.

    The squared-loss special case of :func:`eps_pgd`: the gradient step
    expands to w = x + eta * A.T (y - A x).
    """
    return eps_pgd(Objective(MeasurementModel(matrix=a, link="linear"), y), net, cfg)


def phase_pgd(y, a, net, cfg, x0):
    """Alternating phase estimation and projected descent for y = |A x*|.

    Runs the projected-descent loop on the ``phase_corrected`` objective
    ||y*p - Ax||^2 with no phase given, so p = sign(Ax) is re-bound at every
    iterate: the gradient step is w = x + eta * A.T (y*p - Ax), and the
    recorded objective is the phaseless misfit sum (y_i - |(Ax)_i|)^2.
    """
    x0 = as_vector(x0, "x0", net.output_dim).copy()
    obj = Objective(MeasurementModel(matrix=a, link="magnitude"), y)
    trace = _solve_one(net, cfg, obj, x0)
    return trace.x_hat, trace


def phase_init(y, a, net, rng, strategy="best_of_samples", count=100,
               delta0=None, x_star=None):
    """Initial point for phase retrieval.

    ``best_of_samples`` draws ``count`` range points from unit-norm latents
    and keeps the one with the lowest phaseless misfit ||y - |Ax|||^2; it
    raises ``ValueError`` when no sample's misfit is finite.
    ``oracle_perturb`` returns x* + delta0*||x*||*u for a uniformly random
    unit direction u; it needs the ground truth and exists for controlled
    local-convergence studies.
    """
    a = as_matrix(a, "A", cols=net.output_dim)
    y = as_vector(y, "y", a.shape[0])
    if strategy == "oracle_perturb":
        if x_star is None or delta0 is None:
            raise ValueError("oracle_perturb needs x_star and delta0")
        x_star = as_vector(x_star, "x_star", net.output_dim)
        delta0 = as_real(delta0, "delta0", low=0)
        u = rng.standard_normal(x_star.shape[0])
        u /= np.linalg.norm(u)
        with np.errstate(over="ignore"):  # refused just below
            x0 = x_star + delta0 * np.linalg.norm(x_star) * u
        if not np.all(np.isfinite(x0)):
            raise ValueError(f"delta0 {delta0!r} gives a start that is not finite")
        return x0
    if strategy == "best_of_samples":
        count = as_count(count, "count")
        best_x, best_loss = None, np.inf
        for _ in range(count):
            z = rng.standard_normal(net.latent_dim)
            nz = np.linalg.norm(z)
            x = forward(net, z / nz if nz > 0 else z)
            loss, _ = _loss_terms("magnitude", a @ x, y)
            if loss < best_loss:
                best_x, best_loss = x, loss
        if best_x is None:
            raise ValueError("no sampled range point has a finite misfit to y")
        return best_x
    raise ValueError(f"unknown phase_init strategy {strategy!r}")


def _thresh(w, b, l):
    """Keep the l largest-magnitude coefficients of w in basis B.

    Computes c = B.T w, zeroes all but the l largest |c| (ties break toward
    the lowest index), and returns B c.  B None is the identity, which
    thresholds w's own entries.  l >= n returns a copy of w.  The arguments
    are checked once per solve, by ``myopic_eps_pgd``.
    """
    n = w.shape[0]
    if l >= n:
        return w.copy()
    if l == 0:
        return np.zeros(n)
    c = _coordinates(b, w)
    order = np.argsort(-np.abs(c), kind="stable")  # stable: ties keep low index
    kept = np.zeros(n)
    kept[order[:l]] = c[order[:l]]
    return _combination(b, kept)


def myopic_eps_pgd(obj, net, b, l, cfg):
    """Block solver for targets x* = G(z) + v with v sparse in basis B
    (None for the identity).

    Both blocks share one gradient evaluation per iteration, taken at the
    combined iterate x_t = u_t + v_t: the range block projects
    u_t - eta*grad onto Range(G), the sparse block hard-thresholds
    v_t - eta*grad in B.  Returns (x_hat, u_hat, v_hat, trace), the final
    iterate and its blocks; the trace extras carry the same u_hat and v_hat.
    """
    if obj.kind == "phase_corrected":
        raise ValueError("myopic_eps_pgd does not handle phase_corrected; "
                         "use phase_pgd")
    sparse = (_check_orthonormal(b, net.output_dim),
              as_count(l, "sparsity level l", low=0))
    trace = _solve_one(net, cfg, obj, sparse=sparse)
    return trace.x_hat, trace.extras["u"], trace.extras["v"], trace


def _latent_descent(net, steps, rate, cells):
    """Gradient descent over z on the loss of u = A G(z) that the cells' link
    picks in ``_LATENT_LOSS``, in lockstep; returns one trace per cell.

    The S cells step as one (S, 1, k) latent block through ``_descend``
    (a diverged cell freezes alone), one pass through the net per step; the
    measurement half (A G(z), the loss and A.T c) runs once per run of
    consecutive cells with equal m, against that run's stacked (s, 1, m, n)
    sensing matrices.  Stacked matrix-vector products, so every cell has
    the bits of its own descent.  Both baseline losses
    have scale 1/2, so 2 A.T c is the exact signal-space gradient; it
    backpropagates through the net.  Each cell's Objective has checked its
    y and A (y >= 0 on the magnitude link); here A must have the net's n
    columns and each cell's x0, its start latent (drawn by the caller), the
    net's k entries.
    """
    steps = as_count(steps, "steps")
    rate = as_real(rate, "rate", low=0, strict=True)
    kinds = {_LATENT_LOSS.get(cell.obj.model.link) for cell in cells}
    if len(kinds) != 1 or None in kinds:
        raise ValueError("a latent group needs one link: linear or magnitude")
    (kind,) = kinds
    ys = [cell.obj.y for cell in cells]
    mats = [as_matrix(cell.obj.model.matrix, "A", cols=net.output_dim)
            for cell in cells]
    zs = [as_vector(cell.x0, "z0", net.latent_dim) for cell in cells]
    cuts = [0] + [i for i in range(1, len(cells))
                  if mats[i].shape[0] != mats[i - 1].shape[0]] + [len(cells)]
    runs = [(slice(lo, hi), np.stack(mats[lo:hi])[:, None],
             np.stack(ys[lo:hi])[:, None]) for lo, hi in zip(cuts, cuts[1:])]

    def measure(gx):
        """Each cell's loss and signal-space gradient, one stacked product
        per run of equal m."""
        parts = []
        for rows, a, y in runs:
            loss, c = _loss_terms(kind, _apply(a, gx[rows]), y)
            parts.append((loss, _adjoint(kind, a, 2.0 * c)))
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(p) for p in zip(*parts))

    tb = _TraceBuilder(steps + 1, [cell.x_star for cell in cells], net.output_dim)
    _, gx = _descend(net, np.stack(zs)[:, None], steps, rate, measure,
                     lambda loss, z, gx: tb.add(loss, gx))
    return tb.build(gx.reshape(len(cells), -1), [steps] * len(cells))


def csgm_baseline(y, a, net, steps, rate, rng, x_star=None, z0=None):
    """Plain latent-space gradient descent on ||y - A G(z)||^2, the linear
    link's loss in ``_LATENT_LOSS``."""
    obj = Objective(MeasurementModel(matrix=a, link="linear"), y)
    z0 = rng.standard_normal(net.latent_dim) if z0 is None else z0
    (trace,) = _latent_descent(net, steps, rate, [_Cell(obj, rate, 0, z0, x_star)])
    return trace.x_hat, trace


def dpr_baseline(y, a, net, steps, rate, rng, x_star=None, z0=None):
    """Latent-space gradient descent on the magnitude loss ||y - |A G(z)|||^2,
    the magnitude link's loss in ``_LATENT_LOSS``.

    The subgradient of |u| at 0 is taken as 0 (numpy sign convention).
    """
    obj = Objective(MeasurementModel(matrix=a, link="magnitude"), y)
    z0 = rng.standard_normal(net.latent_dim) if z0 is None else z0
    (trace,) = _latent_descent(net, steps, rate, [_Cell(obj, rate, 0, z0, x_star)])
    return trace.x_hat, trace
