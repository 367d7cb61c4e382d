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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .generator import _backward, _forward_cached, sample_range
from .measurement import MeasurementModel
from .numerics import RngStream, _check_orthonormal, as_matrix, as_vector
from .objectives import Objective, _loss_terms, gradient, rebind_phase, value
from .projection import ProjectionConfig, project

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


class _TraceBuilder:
    def __init__(self, x_star=None):
        self.x_star = None if x_star is None else as_vector(x_star, "ground_truth")
        self.cols = {k: [] for k in
                     ("objective", "per_pixel_error", "sign_error",
                      "proj_residual", "phase_flips")}

    def add(self, objective, x, proj_residual=np.nan, phase_flips=np.nan):
        if self.x_star is None:
            ppe = np.nan
            sgn = np.nan
        else:
            d = x - self.x_star
            s = x + self.x_star
            ppe = float(d @ d) / x.shape[0]
            sgn = min(float(np.linalg.norm(d)), float(np.linalg.norm(s)))
        self.cols["objective"].append(float(objective))
        self.cols["per_pixel_error"].append(ppe)
        self.cols["sign_error"].append(sgn)
        self.cols["proj_residual"].append(float(proj_residual))
        self.cols["phase_flips"].append(float(phase_flips))

    def build(self, x_hat, z_hat, inner_updates, extras=None):
        arrays = {k: np.asarray(v, dtype=np.float64) for k, v in self.cols.items()}
        return SolveTrace(x_hat=x_hat, z_hat=z_hat, inner_updates=inner_updates,
                          extras=extras or {}, **arrays)


def sign_pm(u):
    """Entrywise sign with sign(0) = +1, so phase vectors are always +-1."""
    return np.where(np.asarray(u) >= 0.0, 1.0, -1.0)


def _warm(proj_cfg, z_prev):
    if z_prev is None:
        return proj_cfg
    return replace(proj_cfg, init="warm", warm_z=z_prev)


def _projected_descent(obj, net, cfg, x0=None, rebind=None, sparse=None):
    """The one outer loop: x <- P(x - eta * gradient(x)), from x0 (default 0).

    P projects onto Range(G); with ``sparse = (B, l)`` the feasible set is
    Range(G) + {l-sparse in B}, the iterate is split as x = u + v, and both
    blocks step with the same gradient before u is projected and v is
    hard-thresholded.  ``rebind(obj, x) -> (obj, phase_flips)`` re-binds the
    objective to each new iterate.  A step whose gradient step or projection
    is not finite holds the iterate and records proj_residual = NaN.
    """
    n = net.output_dim
    u = np.zeros(n) if x0 is None else x0
    v = None if sparse is None else np.zeros(n)
    x = u if v is None else u + v
    z_prev = None
    rng = RngStream(cfg.seed)
    tb = _TraceBuilder(cfg.ground_truth)
    flips = np.nan if rebind is None else 0.0
    tb.add(value(obj, x), x, phase_flips=flips)
    u_hist, v_hist = [u], [v]
    inner = 0
    for _ in range(cfg.outer_steps):
        step = cfg.step_size * gradient(obj, x)
        wu = u - step
        wv = None if v is None else v - step
        residual = np.nan  # stays NaN on a held (diverged) step
        if np.all(np.isfinite(wu)) and (wv is None or np.all(np.isfinite(wv))):
            inner += cfg.projection.restarts * cfg.projection.inner_steps
            try:
                res = project(net, wu, _warm(cfg.projection, z_prev), rng)
            except ValueError:
                pass  # no finite range point: hold the iterate
            else:
                u, z_prev, residual = res.x_proj, res.z_hat, res.residual
                if v is not None:
                    v = _thresh(wv, *sparse)
                x = u if v is None else u + v
        if rebind is not None:
            obj, flips = rebind(obj, x)
        tb.add(value(obj, x), x, proj_residual=residual, phase_flips=flips)
        u_hist.append(u)
        v_hist.append(v)
    extras = {} if sparse is None else {"u": np.asarray(u_hist),
                                        "v": np.asarray(v_hist)}
    return tb.build(x, z_prev, inner, extras)


def eps_pgd(obj, net, cfg):
    """Projected gradient descent on a smooth objective over Range(G)."""
    if obj.kind == "phase_corrected":
        raise ValueError("eps_pgd does not handle phase_corrected; use phase_pgd")
    trace = _projected_descent(obj, net, cfg)
    return trace.x_hat, trace


def pgd_linear(y, a, net, cfg):
    """Projected gradient descent for linear measurements y = A x*.

    The squared-loss special case of :func:`eps_pgd`: the gradient step
    expands to w = x + eta * A.T (y - A x).
    """
    obj = Objective(MeasurementModel(matrix=a, link="linear"), y)
    trace = _projected_descent(obj, net, cfg)
    return trace.x_hat, trace


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

    obj = Objective(model, y, phase=phase_of(x0))
    trace = _projected_descent(obj, net, cfg, x0=x0, rebind=rebind)
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
    trace = _projected_descent(obj, net, cfg, sparse=sparse)
    return trace.x_hat, trace.extras["u"][-1], trace.extras["v"][-1], trace


def _latent_descent(net, steps, rate, rng, x_star, z0, kind, a, y):
    """Plain gradient descent over z on the loss ``kind`` of u = A G(z).

    Both baseline losses have scale 1/2, so 2 A.T c is the exact signal-space
    gradient; it backpropagates through the net.
    """
    if int(steps) < 1:
        raise ValueError("steps must be >= 1")
    z = rng.standard_normal(net.latent_dim) if z0 is None else as_vector(z0, "z0").copy()
    gx, acts = _forward_cached(net, z)
    loss, c = _loss_terms(kind, a @ gx, y)
    tb = _TraceBuilder(x_star)
    tb.add(loss, gx)
    # A diverging step overflows (then meets inf - inf) before the
    # finiteness checks below hold it.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(int(steps)):
            z_next = z - rate * _backward(net, acts, a.T @ (2.0 * c))
            gx_next, acts_next = _forward_cached(net, z_next)
            if np.all(np.isfinite(gx_next)):
                loss_next, c_next = _loss_terms(kind, a @ gx_next, y)
                if np.isfinite(loss_next):
                    z, gx, acts = z_next, gx_next, acts_next
                    loss, c = loss_next, c_next
            # A diverged step is not taken: the iterate freezes at the last
            # finite one, so the trace stays finite and non-convergence
            # shows up in the data.
            tb.add(loss, gx)
    return gx, tb.build(gx, z, int(steps))


def csgm_baseline(y, a, net, steps, rate, rng, x_star=None, z0=None):
    """Plain latent-space gradient descent on ||y - A G(z)||^2."""
    return _latent_descent(net, steps, rate, rng, x_star, z0, "squared",
                           as_matrix(a, "A"), as_vector(y, "y"))


def dpr_baseline(y, a, net, steps, rate, rng, x_star=None, z0=None):
    """Latent-space gradient descent on the magnitude loss ||y - |A G(z)|||^2.

    The subgradient of |u| at 0 is taken as 0 (numpy sign convention).
    """
    a = as_matrix(a, "A")
    y = as_vector(y, "y")
    if np.any(y < 0):
        raise ValueError("magnitude observations must be entrywise nonnegative")
    return _latent_descent(net, steps, rate, rng, x_star, z0, "magnitude", a, y)
