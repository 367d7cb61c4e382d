"""Empirical estimates of the quantities the convergence theory runs on.

The restricted constants (lower/upper eigenvalue-type bounds over range
differences, restricted convexity/smoothness, basis incoherence) are not
computable exactly, so everything here is a sample extreme over pairs of
range points drawn from the latent sampling distribution.  Estimates are
therefore optimistic: adding pairs can only shrink the lower constants and
grow the upper ones.

Every range pair comes from ``_pair_blocks``, which refuses a range point
or ||x1 - x2||^2 that is not finite and drops a pair with ||x1 - x2|| <=
1e-9, so the estimates compute their statistic and refuse a non-finite one.

Curvature estimates pair the reported loss value with its exact gradient
(the solvers' step direction divided by ``GRADIENT_SCALE``), so quadratic
losses come out with their textbook constants (e.g. both constants equal 2
for ||y - Ax||^2 under orthonormal A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import forward
from .numerics import _check_orthonormal, _combination, as_count, as_matrix, as_real
from .objectives import GRADIENT_SCALE, _adjoint, _apply, _loss_terms

__all__ = [
    "SrecEstimate",
    "RscRssEstimate",
    "WindowReport",
    "empirical_srec",
    "rsc_rss_estimate",
    "convergence_rate",
    "incoherence_estimate",
    "step_size_window_check",
    "contraction_bound_general",
    "contraction_bound_mismatch",
]

_DEGENERATE = 1e-9
# Fewest pairs per block, each with its own forward: on the sweep_small net,
# forwards of fewer than 38 rows differ from the same rows of a long one.
_PAIR_BLOCK = 256


@dataclass(frozen=True)
class SrecEstimate:
    """Sampled restricted eigenvalue bounds for A over range differences.

    gamma is the smallest observed ||A d||^2 / ||d||^2, rho the largest
    observed ||A d|| / ||d||, over pairs d = x1 - x2 of range points.
    """

    gamma: float
    rho: float
    pairs_used: int


@dataclass(frozen=True)
class RscRssEstimate:
    """Sampled restricted strong convexity/smoothness constants."""

    alpha: float
    beta: float
    samples: int

    @property
    def ratio(self):
        return self.beta / self.alpha


@dataclass(frozen=True)
class WindowReport:
    """Step-size window check against sampled restricted constants."""

    in_window: bool          # 1/(2 gamma) < eta < 1/gamma
    predicted_factor: float  # 1/(eta gamma) - 1; inf when eta gamma underflows
    rho_sq_ok: bool          # rho^2 < 1/eta


def _pair_blocks(net, count, rng):
    """The usable ones of count sampled range pairs, as (x1, x2, d, ||d||^2)
    with d = x1 - x2, in count // ``_PAIR_BLOCK`` near-equal blocks (one if
    count is smaller), each with its own forward.  The latents are drawn interleaved in one
    call, so pair i is the same whatever the total count (sample extremes
    are then monotone in the sample size for a fixed stream).  A non-finite
    range point or ||d||^2 raises ValueError, as does a sample left with no
    pair once those with ||d|| <= ``_DEGENERATE`` are dropped; a block that
    drops none yields x1 and x2 as views of its forward."""
    zs = rng.standard_normal((2 * count, net.latent_dim))
    blocks = max(count // _PAIR_BLOCK, 1)
    edges = [count * i // blocks for i in range(blocks + 1)]
    kept = 0
    for lo, hi in zip(edges, edges[1:]):
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            xs = forward(net, zs[2 * lo:2 * hi])
            x1, x2 = xs[0::2], xs[1::2]
            d = x1 - x2
            dd = np.vecdot(d, d)
        if not np.all(np.isfinite(dd)):  # also whenever a range point is not finite
            raise ValueError("range points contain non-finite entries"
                             if not np.all(np.isfinite(xs)) else
                             "range pair distances are not finite")
        keep = dd > _DEGENERATE**2
        if not np.all(keep):
            x1, x2, d, dd = x1[keep], x2[keep], d[keep], dd[keep]
        kept += len(d)
        yield x1, x2, d, dd
    if not kept:
        raise ValueError("all sampled pairs are degenerate")


@np.errstate(over="ignore", invalid="ignore")  # a non-finite ratio raises below
def empirical_srec(a, net, num_pairs, rng):
    """Sample extremes of ||A(x1-x2)|| / ||x1-x2|| over range-point pairs."""
    a = as_matrix(a, "A", cols=net.output_dim)
    num_pairs = as_count(num_pairs, "num_pairs")
    # Stacked matrix-vector products: one GEMV per pair, whose bits do not
    # depend on the BLAS thread count (a plain GEMM's do).
    ratios = np.concatenate([
        np.linalg.norm(_apply(a, d), axis=1) / np.linalg.norm(d, axis=1)
        for _, _, d, _ in _pair_blocks(net, num_pairs, rng)])
    if not np.all(np.isfinite(ratios**2)):
        raise ValueError("S-REC ratios are not finite")
    return SrecEstimate(gamma=float(np.min(ratios**2)), rho=float(np.max(ratios)),
                        pairs_used=len(ratios))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite quotient raises below
def rsc_rss_estimate(obj, net, num_pairs, rng):
    """Sample extremes of the Bregman curvature quotient over range pairs.

    For each sampled pair (x, x') of range points computes
    q = 2 [F(x') - F(x) - <grad F(x), x' - x>] / ||x' - x||^2 and returns
    (min q, max q).  The pairs come one block at a time from
    ``_pair_blocks``; each quotient has the bits of evaluating it alone.
    """
    as_matrix(obj.model.matrix, "A", cols=net.output_dim)
    num_pairs = as_count(num_pairs, "num_pairs")
    a, kind = obj.model.matrix, obj.kind
    qs = []
    for x, xp, d, dd in _pair_blocks(net, num_pairs, rng):
        # Stacked matrix-vector products: one GEMV per pair, so every row has
        # the bits of the per-pair product (a plain GEMM does not).
        f, c = _loss_terms(kind, _apply(a, x), obj.y, obj.phase)
        fp, _ = _loss_terms(kind, _apply(a, xp), obj.y, obj.phase)
        grad = _adjoint(kind, a, c) / GRADIENT_SCALE[kind]
        # d = x - x', so <grad, x' - x> = -<grad, d> (negation is exact).
        qs.append(2.0 * (fp - f + np.vecdot(grad, d)) / dd)
    qs = np.concatenate(qs)
    if not np.all(np.isfinite(qs)):
        raise ValueError("curvature quotients are not finite")
    return RscRssEstimate(alpha=float(np.min(qs)), beta=float(np.max(qs)),
                          samples=len(qs))


def convergence_rate(trace, floor):
    """Fit F_{t+1} ~= alpha * F_t on the log scale to a SolveTrace's
    objective records above the given floor, and return alpha =
    exp(slope of log F versus iteration).  Raises if fewer than 3 records
    sit above the floor.
    """
    floor = as_real(floor, "floor", low=0)
    f = trace.objective
    t = np.arange(f.shape[0], dtype=np.float64)
    mask = (f > floor) & (f > 0) & np.isfinite(f)
    used = int(np.sum(mask))
    if used < 3:
        raise ValueError(
            f"need at least 3 records above the floor, got {used}"
        )
    slope, _ = np.polyfit(t[mask], np.log(f[mask]), 1)
    return float(np.exp(slope))


def incoherence_estimate(net, b, num_samples, rng, sparsity=1):
    """Largest normalized alignment between range differences and sparse
    basis differences.

    Samples ``num_samples`` pairs of range points and ``num_samples`` pairs
    of ``sparsity``-sparse combinations of the basis columns and maximizes
    |<u - u', v - v'>| / norms over all combinations of one range pair with
    one sparse pair.  ``b`` None is the identity basis.
    """
    n = net.output_dim
    b = _check_orthonormal(b, n)
    num_samples = as_count(num_samples, "num_samples")
    sparsity = as_count(sparsity, "sparsity", low=0)
    if not 1 <= sparsity <= n:
        raise ValueError(f"sparsity must be in [1, n={n}]")

    du = np.concatenate([d for _, _, d, _ in _pair_blocks(net, num_samples, rng)])

    def sparse_draw():
        support = rng.permutation(n)[:sparsity]
        return _combination(b, rng.standard_normal(sparsity), support, n)

    dv = np.array([sparse_draw() - sparse_draw() for _ in range(num_samples)])

    dv = dv[np.linalg.norm(dv, axis=1) > _DEGENERATE]
    if not len(dv):
        raise ValueError("all sampled pairs are degenerate")
    du = du / np.linalg.norm(du, axis=1, keepdims=True)
    dv = dv / np.linalg.norm(dv, axis=1, keepdims=True)
    # One GEMV per sparse pair, as in empirical_srec.
    return float(min(np.max(np.abs(_apply(du, dv))), 1.0))


def step_size_window_check(srec, eta):
    """Check eta against the sampled step-size window (1/(2 gamma), 1/gamma).

    Also reports the predicted per-iteration objective factor
    1/(eta*gamma) - 1 (inf when the product eta*gamma underflows to 0) and
    whether rho^2 < 1/eta, the condition that makes the remaining proof term
    nonpositive.
    """
    gamma = as_real(srec.gamma, "gamma", low=0, strict=True)
    eta = as_real(eta, "eta", low=0, strict=True)
    lo, hi = 1.0 / (2.0 * gamma), 1.0 / gamma
    eta_gamma = eta * gamma
    return WindowReport(
        in_window=bool(lo < eta < hi),
        predicted_factor=float(1.0 / eta_gamma - 1.0) if eta_gamma else float("inf"),
        rho_sq_ok=bool(srec.rho**2 < 1.0 / eta),
    )


def contraction_bound_general(est):
    """Predicted objective-gap factor from curvature constants.

    The theory yields two candidate expressions, ratio - 1 from the stated
    bound and 2 - ratio from the final line of its derivation; both fall in
    (0, 1) when 1 <= ratio < 2 but differ numerically.  Returns
    (max of the two, label of the active one).
    """
    ratio = est.ratio
    stated = ratio - 1.0
    derived = 2.0 - ratio
    if stated >= derived:
        return float(stated), "ratio_minus_one"
    return float(derived), "two_minus_ratio"


def contraction_bound_mismatch(est, mu):
    """Predicted factor for the two-block (range + sparse) solver.

    (2 - ratio*(1 - 2.5 mu)/(1 - mu)) / (1 - (ratio/2) * mu/(1 - mu)),
    reported for inspection only; it can leave (0, 1) when the incoherence
    is too large for the regime the analysis assumes.
    """
    mu = as_real(mu, "mu", low=0)
    if mu >= 1:
        raise ValueError(f"mu must be in [0, 1), got {mu!r}")
    ratio = est.ratio
    num = 2.0 - ratio * (1.0 - 2.5 * mu) / (1.0 - mu)
    den = 1.0 - (ratio / 2.0) * mu / (1.0 - mu)
    if den <= 0:
        return float("inf")
    return float(num / den)
