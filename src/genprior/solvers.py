"""Projected-gradient solvers and latent-descent baselines.

Every projected solver runs one loop, ``_projected_descent``: a gradient
step on the data-fit loss, then an approximate projection back onto the
feasible set, x <- P(x - eta * gradient(x)).  The solvers differ only in
what they hand that loop:

* ``pgd_linear``      the squared loss of linear measurements;
* ``eps_pgd``         any smooth objective (the linear solver is its
                      squared-loss special case);
* ``phase_pgd``       the ``phase_corrected`` loss of magnitude-only
                      measurements, a start point, and a hook that re-binds
                      the phase p = sign(Ax) (sign(0) = +1) to each iterate;
* ``myopic_eps_pgd``  a sparse block: the feasible set becomes Range(G) plus
                      the vectors l-sparse in an ortho-basis B, and both
                      blocks step with the same gradient before their
                      respective projections.

Two latent-space descent baselines, ``csgm_baseline`` (squared loss) and
``dpr_baseline`` (magnitude loss), optimize over z directly.

Every solver emits a :class:`SolveTrace` with one record per iterate
(including the initial point) and is bitwise deterministic given its inputs
and config.  The projection carries its latent warm start from one outer
iteration to the next.  A diverged step (non-finite gradient step, or a
projection that found no finite range point) holds the iterate and records
``proj_residual = NaN``.

Both loops step a lockstep group of cells (a sweep steps every (m, seed)
cell of a solver together), and each public solver is the one-cell case.
In ``_projected_descent`` every cell keeps its own measurements, gradient
step, hold, re-binding, threshold and random stream, and the projections
of one outer step run as one (S, R, k) block.  ``_latent_descent`` steps
one latent (k,) for a single cell and an (S, 1, k) block for S > 1 cells,
measures each run of cells with equal m against its stacked (s, 1, m, n)
sensing matrices, and holds a diverged cell alone.  Stacked matrix-vector
products give every cell the bits of its own run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .generator import _backward, _forward_cached, sample_range
from .measurement import MeasurementModel
from .numerics import RngStream, _check_orthonormal, as_matrix, as_vector
from .objectives import (
    Objective,
    _adjoint,
    _apply,
    _loss_terms,
    gradient,
    rebind_phase,
    value,
)
from .projection import ProjectionConfig, _project_cells

__all__ = [
    "SolverConfig",
    "SolveTrace",
    "pgd_linear",
    "eps_pgd",
    "phase_pgd",
    "phase_init",
    "thresh_in_basis",
    "myopic_eps_pgd",
    "csgm_baseline",
    "dpr_baseline",
    "sign_pm",
]


@dataclass(frozen=True)
class SolverConfig:
    outer_steps: int = 15
    step_size: float = 0.5
    projection: ProjectionConfig = field(default_factory=ProjectionConfig)
    seed: int = 0
    ground_truth: np.ndarray | None = None  # x*, trace enrichment only

    def __post_init__(self):
        if self.outer_steps < 1:
            raise ValueError("outer_steps must be >= 1")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")


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
    z_hat: np.ndarray | None
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


class _TraceBuilder:
    """Per-step records of one cell, or of a lockstep block of cells.

    ``x_star`` holds the cells' ground truths as rows (NaN for a cell
    without one), or is None when no cell has one.  ``add`` takes each
    cell's objective and iterate (the iterates with any leading cell axes,
    or (n,) for one cell) and, optionally, each cell's projection residual
    and phase flips (one value for all cells, or one per cell); ``build``
    makes one trace per cell.  The ``records`` steps go into one (columns,
    cells, records) buffer, and each trace column is a contiguous view of
    it: a latent baseline records thousands of steps, and one small array
    per value, or a copy per column, would hold several times the memory.
    The records of up to ``BLOCK`` steps wait in a step-major buffer, and
    their error columns are computed once per block: eight ufunc calls on a
    few rows per step cost more than their arithmetic.
    """

    BLOCK = 64

    def __init__(self, records, x_star=None):
        self.x_star = None if x_star is None else np.atleast_2d(x_star)
        self.records = records
        self.cols = None
        self.steps = self.done = 0

    def add(self, objective, x, proj_residual=np.nan, phase_flips=np.nan):
        x = x.reshape(-1, x.shape[-1])
        if self.cols is None:
            block = min(self.BLOCK, self.records)
            self.cols = np.empty((len(_TRACE_COLUMNS), x.shape[0], self.records))
            # The steps [done, steps) wait here, step-major.
            self.rows = np.full((block, len(_TRACE_COLUMNS), x.shape[0]), np.nan)
            self.xs = None if self.x_star is None else np.empty((block, *x.shape))
        row = self.rows[self.steps - self.done]
        row[0] = np.ravel(objective)
        row[3] = proj_residual
        row[4] = phase_flips
        if self.xs is not None:
            self.xs[self.steps - self.done] = x
        self.steps += 1
        if self.steps - self.done == len(self.rows):
            self._flush()

    def _flush(self):
        """Move the buffered steps into the columns, with their errors."""
        b = self.steps - self.done
        rows = self.rows[:b]
        if self.xs is not None:
            # Row-wise dot products have the bits of each row's own d @ d.
            x = self.xs[:b]
            d = x - self.x_star
            s = x + self.x_star
            dd = np.vecdot(d, d)
            rows[:, 1] = dd / x.shape[-1]
            rows[:, 2] = np.minimum(np.sqrt(dd), np.sqrt(np.vecdot(s, s)))
        self.cols[:, :, self.done:self.steps] = rows.transpose(1, 2, 0)
        self.done = self.steps

    def build(self, x_hats, z_hats, inner_updates, extras=None):
        """One SolveTrace per cell, from the cells' final iterates, latents,
        inner-update counts and (optional) extras."""
        if self.done < self.steps:
            self._flush()
        return [SolveTrace(x_hat=x_hat, z_hat=z_hat, inner_updates=inner,
                           extras=extras[i] if extras else {},
                           **dict(zip(_TRACE_COLUMNS, self.cols[:, i])))
                for i, (x_hat, z_hat, inner)
                in enumerate(zip(x_hats, z_hats, inner_updates))]


def _truth_block(truths, n):
    """The cells' ground truths as one (cells, n) block for _TraceBuilder."""
    if all(t is None for t in truths):
        return None
    return np.stack([np.full(n, np.nan) if t is None
                     else as_vector(t, "ground_truth") for t in truths])


def sign_pm(u):
    """Entrywise sign with sign(0) = +1, so phase vectors are always +-1."""
    return np.where(np.asarray(u) >= 0.0, 1.0, -1.0)


def _warm(proj_cfg, z_prev):
    if z_prev is None:
        return proj_cfg
    return replace(proj_cfg, init="warm", warm_z=z_prev)


class _Cell(NamedTuple):
    """One solve of a projected-descent group: its objective and config, a
    start point (None: 0) and a hook ``rebind(obj, x) -> (obj,
    phase_flips)`` that re-binds the objective to each new iterate."""

    obj: Objective
    cfg: SolverConfig
    x0: np.ndarray | None = None
    rebind: Callable | None = None


def _projected_descent(net, cells, sparse=None):
    """The one outer loop, x <- P(x - eta * gradient(x)), over a group of
    cells in lockstep; returns one trace per cell.

    The cells share ``outer_steps`` and the projection's inner settings.
    Each cell starts from its x0 (default 0) and keeps its own gradient
    step, hold, re-binding, threshold and RngStream; the projections of one
    outer step run as one ``_project_cells`` block, so every cell has the
    bits of running alone.  P projects onto Range(G); with ``sparse = (B,
    l)`` the feasible set is Range(G) + {l-sparse in B}, each iterate is
    split as x = u + v, and both blocks step with the same gradient before
    u is projected and v is hard-thresholded.  A cell whose gradient step
    or projection is not finite holds its iterate and records
    proj_residual = NaN.
    """
    n = net.output_dim
    outer, proj = cells[0].cfg.outer_steps, cells[0].cfg.projection
    objs = [c.obj for c in cells]
    us = [np.zeros(n) if c.x0 is None else c.x0 for c in cells]
    vs = [None if sparse is None else np.zeros(n) for _ in cells]
    xs = [u if v is None else u + v for u, v in zip(us, vs)]
    z_prev = [None] * len(cells)
    rngs = [RngStream(c.cfg.seed) for c in cells]
    tb = _TraceBuilder(outer + 1,
                       _truth_block([c.cfg.ground_truth for c in cells], n))
    flips = [np.nan if c.rebind is None else 0.0 for c in cells]
    tb.add([value(o, x) for o, x in zip(objs, xs)], np.stack(xs),
           proj_residual=[np.nan] * len(cells), phase_flips=flips)
    hist = [[(u, v)] for u, v in zip(us, vs)]
    inner = [0] * len(cells)
    for _ in range(outer):
        residual = [np.nan] * len(cells)  # stays NaN on a held (diverged) step
        moves = []  # (cell, w_u, w_v) of every finite gradient step
        for i, c in enumerate(cells):
            # An overflowing step is held by the finiteness check below.
            with np.errstate(over="ignore", invalid="ignore"):
                step = c.cfg.step_size * gradient(objs[i], xs[i])
                wu = us[i] - step
                wv = None if vs[i] is None else vs[i] - step
            if np.all(np.isfinite(wu)) and (wv is None or np.all(np.isfinite(wv))):
                inner[i] += proj.restarts * proj.inner_steps
                moves.append((i, wu, wv))
        results = _project_cells(
            net, [wu for _, wu, _ in moves],
            [_warm(cells[i].cfg.projection, z_prev[i]) for i, _, _ in moves],
            [rngs[i] for i, _, _ in moves]) if moves else []
        for (i, _, wv), res in zip(moves, results):
            if res is None:
                continue  # no finite range point: hold the iterate
            us[i], z_prev[i], residual[i] = res.x_proj, res.z_hat, res.residual
            if wv is not None:
                vs[i] = _thresh(wv, *sparse)
            xs[i] = us[i] if vs[i] is None else us[i] + vs[i]
        for i, c in enumerate(cells):
            if c.rebind is not None:
                objs[i], flips[i] = c.rebind(objs[i], xs[i])
            hist[i].append((us[i], vs[i]))
        tb.add([value(o, x) for o, x in zip(objs, xs)], np.stack(xs),
               proj_residual=residual, phase_flips=flips)
    extras = None if sparse is None else [
        {"u": np.asarray([u for u, _ in h]), "v": np.asarray([v for _, v in h])}
        for h in hist]
    return tb.build(xs, z_prev, inner, extras)


def eps_pgd(obj, net, cfg):
    """Projected gradient descent on a smooth objective over Range(G)."""
    if obj.kind == "phase_corrected":
        raise ValueError("eps_pgd does not handle phase_corrected; use phase_pgd")
    (trace,) = _projected_descent(net, [_Cell(obj, cfg)])
    return trace.x_hat, trace


def pgd_linear(y, a, net, cfg):
    """Projected gradient descent for linear measurements y = A x*.

    The squared-loss special case of :func:`eps_pgd`: the gradient step
    expands to w = x + eta * A.T (y - A x).
    """
    obj = Objective(MeasurementModel(matrix=a, link="linear"), y)
    (trace,) = _projected_descent(net, [_Cell(obj, cfg)])
    return trace.x_hat, trace


def _phase_cell(y, a, net, cfg, x0, phase_override=None):
    """The cell of one ``phase_pgd`` solve; see there."""
    y = as_vector(y, "y")
    if np.any(y < 0):
        raise ValueError("magnitude observations must be entrywise nonnegative")
    x0 = as_vector(x0, "x0").copy()
    if x0.shape[0] != net.output_dim:
        raise ValueError("x0 length does not match generator output dim")
    model = MeasurementModel(matrix=a, link="magnitude")
    pinned = None if phase_override is None else as_vector(phase_override,
                                                           "phase_override")

    def phase_of(x):
        return sign_pm(model.matrix @ x) if pinned is None else pinned

    def rebind(obj, x):
        p = phase_of(x)
        return rebind_phase(obj, p), float(np.sum(p != obj.phase))

    return _Cell(Objective(model, y, phase=phase_of(x0)), cfg, x0, rebind)


def phase_pgd(y, a, net, cfg, x0, phase_override=None):
    """Alternating phase estimation and projected descent for y = |A x*|.

    Runs the projected-descent loop on the ``phase_corrected`` objective
    ||y*p - Ax||^2, re-binding p = sign(Ax) to every new iterate, so the
    gradient step is w = x + eta * A.T (y*p - Ax) and the recorded objective
    is the phaseless misfit sum (y_i - |(Ax)_i|)^2.

    ``phase_override`` pins the phase vector for every iteration (bypassing
    the sign re-estimate); with the true phase this reduces the algorithm
    to the linear solver on y*p.  Intended for tests and diagnostics.
    """
    cell = _phase_cell(y, a, net, cfg, x0, phase_override)
    (trace,) = _projected_descent(net, [cell])
    return trace.x_hat, trace


def phase_init(y, a, net, rng, strategy="best_of_samples", count=100,
               delta0=None, x_star=None):
    """Initial point for phase retrieval.

    ``best_of_samples`` draws ``count`` range points from unit-norm latents
    and keeps the one with the lowest phaseless misfit ||y - |Ax|||^2.
    ``oracle_perturb`` returns x* + delta0*||x*||*u for a uniformly random
    unit direction u; it needs the ground truth and exists for controlled
    local-convergence studies.
    """
    y = as_vector(y, "y")
    a = as_matrix(a, "A")
    if strategy == "oracle_perturb":
        if x_star is None or delta0 is None:
            raise ValueError("oracle_perturb needs x_star and delta0")
        x_star = as_vector(x_star, "x_star")
        u = rng.standard_normal(x_star.shape[0])
        u /= np.linalg.norm(u)
        return x_star + delta0 * np.linalg.norm(x_star) * u
    if strategy == "best_of_samples":
        best_x, best_loss = None, np.inf
        for _ in range(int(count)):
            s = sample_range(net, rng, unit_norm=True)
            loss, _ = _loss_terms("magnitude", a @ s.x, y)
            if loss < best_loss:
                best_x, best_loss = s.x, loss
        return best_x
    raise ValueError(f"unknown phase_init strategy {strategy!r}")


def _thresh(w, b, l):
    """thresh_in_basis without the argument checks (solver inner loop)."""
    n = w.shape[0]
    if l >= n:
        return w.copy()
    if l == 0:
        return np.zeros(n)
    c = b.T @ w
    order = np.argsort(-np.abs(c), kind="stable")  # stable: ties keep low index
    kept = np.zeros(n)
    kept[order[:l]] = c[order[:l]]
    return b @ kept


def _check_basis(b, n, l):
    b = _check_orthonormal(b)
    if b.shape[0] != n:
        raise ValueError(f"basis size {b.shape[0]} does not match length {n}")
    l = int(l)
    if l < 0:
        raise ValueError("sparsity level must be nonnegative")
    return b, l


def thresh_in_basis(w, b, l):
    """Keep the l largest-magnitude coefficients of w in basis B.

    Computes c = B.T w, zeroes all but the l largest |c| (ties break toward
    the lowest index), and returns B c.  l >= n returns w unchanged.
    """
    w = as_vector(w, "w")
    return _thresh(w, *_check_basis(b, w.shape[0], l))


def myopic_eps_pgd(obj, net, b, l, cfg):
    """Block solver for targets x* = G(z) + v with v sparse in basis B.

    Both blocks share one gradient evaluation per iteration, taken at the
    combined iterate x_t = u_t + v_t: the range block projects
    u_t - eta*grad onto Range(G), the sparse block hard-thresholds
    v_t - eta*grad in B.  Returns (x_hat, u_hat, v_hat, trace); the trace
    extras carry the per-iteration u and v blocks.
    """
    sparse = _check_basis(b, net.output_dim, l)
    (trace,) = _projected_descent(net, [_Cell(obj, cfg)], sparse=sparse)
    return trace.x_hat, trace.extras["u"][-1], trace.extras["v"][-1], trace


class _LatentCell(NamedTuple):
    """One latent-descent baseline solve: observations y = A x, its own
    start stream, and optional ground truth and start latent."""

    y: np.ndarray
    a: np.ndarray
    rng: RngStream
    x_star: np.ndarray | None = None
    z0: np.ndarray | None = None


def _latent_descent(net, steps, rate, kind, cells):
    """Plain gradient descent over z on the loss ``kind`` of u = A G(z), in
    lockstep over a group of cells; returns one trace per cell.

    One cell steps its latent as a vector (k,).  S > 1 cells step as one
    (S, 1, k) latent block, one pass through the net per step; the
    measurement half (A G(z), the loss and A.T c) runs once per run of
    consecutive cells with equal m, against that run's stacked (s, 1, m, n)
    sensing matrices.  Stacked matrix-vector products, so every cell has
    the bits of its own descent.  Both baseline losses have scale 1/2, so
    2 A.T c is the exact signal-space gradient; it backpropagates through
    the net.
    """
    ys = [as_vector(cell.y, "y") for cell in cells]
    mats = [as_matrix(cell.a, "A") for cell in cells]
    if kind == "magnitude" and any(np.any(y < 0) for y in ys):
        raise ValueError("magnitude observations must be entrywise nonnegative")
    if int(steps) < 1:
        raise ValueError("steps must be >= 1")
    zs = [cell.rng.standard_normal(net.latent_dim) if cell.z0 is None
          else as_vector(cell.z0, "z0").copy() for cell in cells]
    if len(cells) == 1:
        z, runs = zs[0], [(slice(None), mats[0], ys[0])]
    else:
        z = np.stack(zs)[:, None]
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

    tb = _TraceBuilder(int(steps) + 1, _truth_block(
        [cell.x_star for cell in cells], net.output_dim))
    # A diverging cell overflows (then meets inf - inf) before the
    # finiteness checks below hold it; its start can overflow too.
    with np.errstate(over="ignore", invalid="ignore"):
        gx, acts = _forward_cached(net, z)
        loss, g = measure(gx)
        tb.add(loss, gx)
        for _ in range(int(steps)):
            z_next = z - rate * _backward(net, acts, g)
            gx_next, acts_next = _forward_cached(net, z_next)
            loss_next, g_next = measure(gx_next)
            ok = np.isfinite(gx_next).all(axis=-1) & np.isfinite(loss_next)
            # A diverged step is not taken: the cell's iterate freezes at
            # its last finite one, so the trace stays finite and
            # non-convergence shows up in the data.
            if ok.all():
                z, gx, acts, loss, g = z_next, gx_next, acts_next, loss_next, g_next
            elif ok.any():
                keep = ok[..., None]
                z = np.where(keep, z_next, z)
                gx = np.where(keep, gx_next, gx)
                acts = [np.where(keep, h_next, h) for h_next, h in zip(acts_next, acts)]
                loss = np.where(ok, loss_next, loss)
                g = np.where(keep, g_next, g)
            tb.add(loss, gx)
    n_cells = len(cells)
    return tb.build(gx.reshape(n_cells, -1), z.reshape(n_cells, -1),
                    [int(steps)] * n_cells)


def csgm_baseline(y, a, net, steps, rate, rng, x_star=None, z0=None):
    """Plain latent-space gradient descent on ||y - A G(z)||^2."""
    (trace,) = _latent_descent(net, steps, rate, "squared",
                               [_LatentCell(y, a, rng, x_star, z0)])
    return trace.x_hat, trace


def dpr_baseline(y, a, net, steps, rate, rng, x_star=None, z0=None):
    """Latent-space gradient descent on the magnitude loss ||y - |A G(z)|||^2.

    The subgradient of |u| at 0 is taken as 0 (numpy sign convention).
    """
    (trace,) = _latent_descent(net, steps, rate, "magnitude",
                               [_LatentCell(y, a, rng, x_star, z0)])
    return trace.x_hat, trace
