"""Experiment harness: build instances, run solvers, write traces and sweeps.

Subcommands::

    genprior gen      --config c.txt [--out DIR]   write generator weights
    genprior solve    --config c.txt [--out DIR]   one solve -> trace.csv (+ image)
    genprior sweep    --config c.txt [--out DIR]   m x seed x solver grid -> results.csv
    genprior diagnose --config c.txt [--out DIR]   restricted-constant estimates

Configs are flat ``key = value`` text files ('#' starts a comment).  Every
key is declared once, with its default and the values it accepts, as a
field of ``ExperimentConfig``; unknown keys are rejected with the offending
file and line.  Every rule is checked before any instance is built: each
key against its declaration and the cross-key rules when an
``ExperimentConfig`` is built (by ``load_config``, directly or by
``dataclasses.replace``), the rules that need the signal length once the
generator is built.  An instance that overflows (its weights, x*, y or
oracle phase start), or an ``eta=auto`` probe that finds no usable pair,
raises ``ConfigError`` before any solve; so do ``diagnose``'s estimates
when they find no usable pair.
Any key can be overridden on the command line with ``--set key=value``;
``--seed``, ``--out`` and ``--workers`` are shorthands for the keys of the
same name.
The default output directory comes from ``$GENPRIOR_OUT``, else ``./out``.

Every command runs its cells one way.  A cell is one ``solvers._Cell``
(an (m, seed) instance's objective, ``resolve_eta``'s step size, seed and
x*), built once before any solve; its link picks a baseline's loss.  Each
solver runs as one lockstep group over its cells, once each cell that
needs a start has it.  ``solve`` and ``diagnose`` run one cell; a sweep
runs one group per solver over each shard of its cells.

``_run_forked`` deals a command's items round-robin into one shard per
usable CPU (at most one per item).  Shard 0 runs in this process and the
others in forked children (Linux only; elsewhere one shard), which inherit
every input and send back only their results.  A sweep's items are its
cells, and a shard's groups run one after another, since a lockstep solve
holds the interpreter lock nearly throughout.  ``diagnose``'s two items
are its restricted-constant estimates and its step size and solve, which
never meet the estimates.  While shards run side by side, each process's
OpenBLAS pool is cut to its share of the usable CPUs, and restored when
they are done.  A command builds the mismatch basis once, before any fork;
the identity basis builds nothing (it is None).
``--workers`` is accepted and changes nothing.

Outputs are deterministic byte-for-byte given the config, and do not depend
on how the cells are grouped or sharded: CSV floats are written with 17
significant digits, sweep rows in (m, seed, solver) order, and wall-clock
timings go to a separate ``timings.txt`` sidecar (one line per cell, holding
the wall of its solver's group within its shard) so the result tables diff
clean across reruns.
Reconstructions are written as plain-text PGM (P2) images when the signal
length is a perfect square, min-max scaled to 0..255 with the scaling range
recorded in the summary.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import pickle
import signal
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .generator import (
    estimate_diameter,
    forward,
    load_weights,
    random_generator,
    save_weights,
)
from .measurement import MeasurementModel, observe, observe_noisy
from .numerics import (RngStream, _check_orthonormal, _combination, as_count,
                       as_real, blas_threads, gaussian_matrix)
from .objectives import GRADIENT_SCALE, Objective, sign_pm
from .projection import ProjectionConfig
from .solvers import _Cell, _latent_descent, _projected_descent, phase_init

__all__ = ["main", "entrypoint", "ConfigError", "ExperimentConfig", "load_config"]

PROBLEMS = ("linear", "sinusoid", "sigmoid", "phase", "mismatch")
SOLVERS = ("pgd", "eps_pgd", "phase_pgd", "myopic", "csgm", "dpr")
BASELINES = ("csgm", "dpr")  # the latent-descent solvers, which never read eta

PROBLEM_LINK = {
    "linear": "linear",
    "sinusoid": "sinusoid",
    "sigmoid": "sigmoid",
    "phase": "magnitude",
    "mismatch": "linear",
}

# The solvers each problem accepts; the first is its default.  On the
# linear problem eps_pgd would run exactly what pgd runs.
SOLVERS_FOR_PROBLEM = {
    "linear": ("pgd", "csgm"),
    "sinusoid": ("eps_pgd",),
    "sigmoid": ("eps_pgd",),
    "phase": ("phase_pgd", "dpr"),
    "mismatch": ("myopic",),
}

RATE_FLOOR = 1e-8
# x*'s and y's squared norms must stay this factor below the float64 limit:
# the error columns and F square the distance from x* (or y) of an iterate
# up to three times its norm.
HEADROOM = 16.0


class ConfigError(Exception):
    """Invalid experiment configuration; message carries file:line context."""


def _parse_bool(s):
    if s.lower() in ("true", "yes", "1", "on"):
        return True
    if s.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_int_list(s):
    return tuple(int(tok) for tok in s.split(",") if tok.strip() != "")


def _parse_str_list(s):
    return tuple(tok.strip() for tok in s.split(",") if tok.strip() != "")


def _parse_eta(s):
    if s.strip().lower() == "auto":
        return "auto"
    return float(s)


def _key(default, parse=None, choices=None, low=None, strict=False, unique=False):
    """A config key with a parser other than type(default), a closed set of
    allowed values, a lower bound (``>= low``, or ``> low`` for a real key
    when ``strict``) or no repeated entries; a tuple key's choices and bound
    hold for each entry."""
    return field(default=default, metadata=dict(
        parse=parse, choices=choices, low=low, strict=strict, unique=unique))


@dataclass(frozen=True)
class ExperimentConfig:
    """Every config key, its default, how its text value parses and the
    values it accepts.

    Defaults follow the reference experimental protocol: eta 0.5 (0.9 for
    phase problems), 15 outer and 200 inner steps.  Keys without a
    ``_key`` declaration parse with the type of their default and accept
    any finite value (``eta`` also None, unset, or ``"auto"``).  A config
    checks its keys (the type of a bool, str or tuple key, ``as_count`` and
    ``as_real``) and the rules that tie keys together when it is built.
    """

    problem: str = _key("linear", choices=PROBLEMS)
    latent_dim: int = _key(20, low=1)
    hidden_dims: tuple = _key((200,), _parse_int_list, low=1)
    output_dim: int = _key(784, low=1)
    activation: str = _key("relu", choices=("relu", "tanh", "identity"))
    weight_scale: float = 1.0
    bias_scale: float = 0.0
    weight_seed: int = _key(0, low=0)
    weights_path: str = ""
    weights_out: str = "generator.gpw"
    m: int = _key(100, low=1)
    m_list: tuple = _key((), _parse_int_list, low=1, unique=True)
    matrix_kind: str = _key("gaussian", choices=("gaussian", "orthonormal"))
    solver: str = _key("", choices=("", *SOLVERS))
    solvers: tuple = _key((), _parse_str_list, choices=SOLVERS, unique=True)
    eta: object = _key(None, _parse_eta, low=0, strict=True)
    outer_steps: int = _key(15, low=1)
    inner_steps: int = _key(200, low=1)
    inner_rate: float = _key(0.01, low=0, strict=True)
    restarts: int = _key(1, low=1)
    seed: int = _key(0, low=0)
    seeds: tuple = _key((), _parse_int_list, low=0, unique=True)
    unit_norm_latent: bool = _key(False, _parse_bool)
    noise_std: float = _key(0.0, low=0)
    sparsity: int = _key(5, low=0)
    spike_scale: float = 5.0
    basis: str = _key("identity", choices=("identity", "random_ortho"))
    csgm_steps: int = _key(3000, low=1)
    csgm_rate: float = _key(0.01, low=0, strict=True)
    dpr_steps: int = _key(2500, low=1)
    dpr_rate: float = _key(0.01, low=0, strict=True)
    phase_init_strategy: str = _key("best_of_samples",
                                    choices=("best_of_samples", "oracle_perturb"))
    phase_init_count: int = _key(100, low=1)
    phase_delta0: float = _key(0.1, low=0)
    num_pairs: int = _key(500, low=1)
    image: bool = _key(True, _parse_bool)
    out: str = ""
    workers: int = _key(1, low=1)  # unused: a sweep shards over the usable CPUs

    def __post_init__(self):
        for f in fields(self):
            v, meta, kind = getattr(self, f.name), f.metadata, type(f.default)
            choices, low = meta.get("choices"), meta.get("low", -math.inf)
            if kind in (bool, str, tuple) and not isinstance(v, kind):
                raise ConfigError(f"{f.name} must be a {kind.__name__}, got {v!r}")
            name = f"{f.name} entries" if isinstance(v, tuple) else f.name
            for e in v if isinstance(v, tuple) else (v,):
                if choices and e not in choices:
                    raise ConfigError(f"{name} must be one of {choices}, got {e!r}")
                try:
                    if kind is int or meta.get("parse") is _parse_int_list:
                        as_count(e, name, low)
                    elif (kind is float
                          or f.name == "eta" and e is not None and e != "auto"):
                        as_real(e, name, low, meta.get("strict", False))
                except ValueError as exc:
                    raise ConfigError(str(exc)) from None
            if meta.get("unique") and len(set(v)) < len(v):
                raise ConfigError(f"{f.name} has duplicate entries: {v!r}")
        # Additive noise on |Ax| makes negative magnitudes, which phase_pgd
        # rejects; there is no noisy magnitude model.
        if self.problem == "phase" and self.noise_std > 0:
            raise ConfigError(f"noise_std must be 0 for problem 'phase', "
                              f"got {self.noise_std!r}")
        for s in (self.single_solver(), *self.solver_list()):
            if s not in SOLVERS_FOR_PROBLEM[self.problem]:
                raise ConfigError(f"solver {s!r} does not apply to problem "
                                  f"{self.problem!r} (choose from "
                                  f"{SOLVERS_FOR_PROBLEM[self.problem]})")

    def solver_list(self):
        """The solvers a sweep runs: ``solvers``, else ``solver``, else the
        problem's default."""
        return self.solvers or (self.solver or SOLVERS_FOR_PROBLEM[self.problem][0],)

    def single_solver(self):
        """The solver ``solve`` and ``diagnose`` run: ``solver``, else the
        first of ``solver_list()`` (as they read ``m`` over ``m_list``)."""
        return self.solver or self.solver_list()[0]

    def seed_list(self):
        return self.seeds if self.seeds else (self.seed,)

    def m_values(self):
        return self.m_list if self.m_list else (self.m,)


_KEYS = {f.name: f for f in fields(ExperimentConfig)}


def _parse(key, raw):
    f = _KEYS[key]
    return (f.metadata.get("parse") or type(f.default))(raw)


def load_config(path=None, overrides=(), seed=None, out=None, workers=None):
    """Assemble an ExperimentConfig from file, --set overrides and flags."""
    values = {}
    # Lazy: the first broken line, in file then --set order, is reported.
    lines = itertools.chain(_read_config_lines(path) if path else (),
                            map(_read_override, overrides))
    for where, key, raw in lines:
        if key not in _KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        try:
            values[key] = _parse(key, raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key}: {exc}")
    flags = {"seed": seed, "out": out, "workers": workers}
    values.update((key, v) for key, v in flags.items() if v is not None)
    values["out"] = str(values.get("out") or os.environ.get("GENPRIOR_OUT", "out"))
    return ExperimentConfig(**values)


def _read_override(item):
    """One ``--set key=value`` item as (where, key, raw)."""
    if "=" not in item:
        raise ConfigError(f"--set expects key=value, got {item!r}")
    key, raw = item.split("=", 1)
    return "--set", key.strip(), raw.strip()


def _read_config_lines(path):
    """Each setting of the config file as (path:line, key, raw)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        yield f"{path}:{lineno}", key.strip(), raw.strip()


# ---------------------------------------------------------------------------
# instance construction


@np.errstate(over="ignore", invalid="ignore")
def build_generator(cfg):
    if cfg.weights_path:
        return load_weights(cfg.weights_path)
    rng = RngStream(cfg.weight_seed, spawn_key=(901,))
    try:
        return random_generator(cfg.latent_dim, cfg.hidden_dims, cfg.output_dim,
                                cfg.activation, rng, weight_scale=cfg.weight_scale,
                                bias_scale=cfg.bias_scale)
    except ValueError as exc:  # the keys are valid, so the draws overflowed
        raise ConfigError(f"weight_scale ({cfg.weight_scale!r}) and bias_scale "
                          f"({cfg.bias_scale!r}) give a generator that is not "
                          f"finite: {exc}") from None


def build_basis(cfg, n):
    """The n x n orthonormal basis that mismatch spikes are sparse in: a
    checked random draw that depends on ``weight_seed`` alone for
    ``basis=random_ortho``, else None (the identity, never built; no other
    problem reads a basis).  A command builds it once, after the generator
    has fixed n."""
    if cfg.problem != "mismatch" or cfg.basis == "identity":
        return None
    rng = RngStream(cfg.weight_seed, spawn_key=(902,))
    return _check_orthonormal(_orthogonal_draw(rng, n))


def _orthogonal_draw(rng, n):
    """Q of an n x n Gaussian draw's QR, its signs made canonical by R's.
    The QR runs at one BLAS thread, whatever the process's count: its
    blocked update's bits follow the thread count (see README, Determinism)."""
    g = rng.standard_normal((n, n))
    threads = blas_threads(1)
    try:
        q, r = np.linalg.qr(g)
    finally:
        if threads is not None:
            blas_threads(threads)
    return q * np.sign(np.diag(r))


def _generator_keys(cfg):
    """The keys that set the generator's weights, for an error to name."""
    return (["the weights in weights_path"] if cfg.weights_path
            else ["weight_scale", "bias_scale"])


def _not_finite(what, keys):
    return ConfigError(f"{what} is not finite or too near the float64 limit; "
                       f"shrink {' or '.join(keys)}")


@np.errstate(over="ignore", invalid="ignore")  # overflows raise ConfigError
def build_instance(cfg, net, m, seed, basis=None):
    """The (objective, x*) of a planted problem: x* = G(z*) (+ sparse spikes
    in ``basis`` for mismatch, built here when not given), and the
    objective of its observations y.

    The target depends only on the seed; the sensing matrix depends on
    (seed, m) so each sweep column sees fresh measurements of the same
    signal.  Raises ConfigError, naming the keys to shrink, when x* or y
    has no finite squared norm with HEADROOM to spare, or the oracle phase
    start's distance from x* has no finite squared norm.
    """
    keys = _generator_keys(cfg)
    root = RngStream(seed)
    z_star = root.derive(0).standard_normal(net.latent_dim)
    if cfg.unit_norm_latent:
        z_star = z_star / np.linalg.norm(z_star)
    x_base = forward(net, z_star)
    x_star = x_base
    if cfg.problem == "mismatch":
        keys.append("spike_scale")
        if basis is None:
            basis = build_basis(cfg, net.output_dim)
        spike_rng = root.derive(2)
        support = spike_rng.permutation(net.output_dim)[: cfg.sparsity]
        scale = cfg.spike_scale * np.linalg.norm(x_base) / np.sqrt(net.output_dim)
        coeffs = np.zeros(net.output_dim)
        coeffs[support] = scale * sign_pm(spike_rng.standard_normal(cfg.sparsity))
        x_star = x_base + _combination(basis, coeffs)
    if not np.isfinite(HEADROOM * (x_star @ x_star)):
        raise _not_finite(f"x* at seed {seed}", keys)
    n = net.output_dim
    if cfg.matrix_kind == "orthonormal":
        a = _orthogonal_draw(root.derive(1, m), n).T[:m]
    else:
        a = gaussian_matrix(m, n, 1.0 / m, root.derive(1, m))
    model = MeasurementModel(matrix=a, link=PROBLEM_LINK[cfg.problem])
    if cfg.noise_std > 0:
        keys.append("noise_std")
        try:
            y = observe_noisy(model, x_star, cfg.noise_std, root.derive(3))
        except ValueError:  # the noise overflowed y
            raise _not_finite(f"y at m={m}, seed {seed}", keys) from None
    else:
        y = observe(model, x_star)
    if not np.isfinite(HEADROOM * (y @ y)):
        raise _not_finite(f"y at m={m}, seed {seed}", keys)
    if ("phase_pgd" in (cfg.single_solver(), *cfg.solver_list())
            and cfg.phase_init_strategy == "oracle_perturb"
            and not np.isfinite((cfg.phase_delta0 * np.linalg.norm(x_star)) ** 2)):
        raise _not_finite(f"the oracle phase start's distance from x* at seed {seed}",
                          ["phase_delta0"])
    return Objective(model, y), x_star


def _diagnostic_objective(obj):
    """Objective for curvature probes; magnitude links get a unit phase
    (the quadratic curvature of ||y*p - Ax||^2 does not depend on p)."""
    if obj.kind == "phase_corrected":
        return Objective(obj.model, obj.y, phase=np.ones(obj.model.num_measurements))
    return obj


@np.errstate(over="ignore", invalid="ignore")  # a failed probe raises ConfigError
def resolve_eta(cfg, obj, net, seed, solvers):
    """A cell's step size for a command running ``solvers``: ``eta`` as given;
    unset, or ``auto`` with only baselines (which never read it), the problem's
    default (0.9 phase, else 0.5); else 1/beta from the stream-903 probe."""
    if cfg.eta is None or (cfg.eta == "auto" and set(solvers) <= set(BASELINES)):
        return 0.9 if cfg.problem == "phase" else 0.5
    if cfg.eta != "auto":
        return float(cfg.eta)
    obj = _diagnostic_objective(obj)
    probe = (f"eta=auto at seed {seed}: the curvature probe over num_pairs "
             f"({cfg.num_pairs}) range pairs")
    try:
        est = diag.rsc_rss_estimate(obj, net, cfg.num_pairs,
                                    RngStream(seed, spawn_key=(903,)))
    except ValueError as exc:  # every pair is degenerate or not finite
        raise ConfigError(f"{probe} failed: {exc}; set eta, or change "
                          f"{' or '.join(_generator_keys(cfg))}") from None
    eta = 1.0 / (GRADIENT_SCALE[obj.kind] * est.beta) if est.beta > 0 else math.inf
    if not 0 < eta < math.inf:
        raise ConfigError(f"{probe} gives no finite positive step size "
                          f"(beta_hat = {est.beta!r}); set eta")
    return eta


def _solve_group(cfg, net, basis, solver, cells):
    """The traces of one solver on the given cells, stepped in lockstep;
    ``basis`` is the command's mismatch basis, which myopic thresholds
    in."""
    if solver == "csgm":
        return _latent_descent(net, cfg.csgm_steps, cfg.csgm_rate, cells)
    if solver == "dpr":
        return _latent_descent(net, cfg.dpr_steps, cfg.dpr_rate, cells)
    proj = ProjectionConfig(inner_steps=cfg.inner_steps, inner_rate=cfg.inner_rate,
                            restarts=cfg.restarts)
    sparse = (basis, cfg.sparsity) if solver == "myopic" else None
    return _projected_descent(net, cells, cfg.outer_steps, proj, sparse)


def _run_group(cfg, net, basis, solver, cells, traced=False):
    """The rows of one solver's lockstep group over its cells, given the
    command's basis: each holds ``summary.txt``'s keys in its order, and
    the cell's trace under ``trace`` only when ``traced`` (a sweep's traces
    would pile up in memory).

    Each cell gets its start first: a ``phase_pgd`` point from stream 904,
    a baseline's start latent from stream 905.  Then the solver steps every
    cell of the group in lockstep, with the bits each cell has on its own.
    The solver sees the cells' x* only when ``traced``: only ``trace.csv``
    reads the per-step error columns it costs.  Each row's final error has
    the bits of a traced run's last record, and its ``wall_time_s`` is the
    wall of the group's solve.
    """
    t0 = time.perf_counter()
    if solver == "phase_pgd":
        cells = [c._replace(x0=phase_init(
            c.obj.y, c.obj.model.matrix, net, RngStream(c.seed, spawn_key=(904,)),
            cfg.phase_init_strategy, cfg.phase_init_count, cfg.phase_delta0,
            c.x_star)) for c in cells]
    elif solver in BASELINES:
        cells = [c._replace(x0=RngStream(c.seed, spawn_key=(905,)).standard_normal(
            net.latent_dim)) for c in cells]
    traces = _solve_group(cfg, net, basis, solver, cells if traced else
                          [c._replace(x_star=None) for c in cells])
    wall = time.perf_counter() - t0
    rows = []
    for c, trace in zip(cells, traces):
        d = trace.x_hat - c.x_star
        try:
            alpha_fit = diag.convergence_rate(trace, RATE_FLOOR)
        except ValueError:
            alpha_fit = float("nan")
        rows.append({
            "solver": solver,
            "m": c.obj.model.num_measurements,
            "seed": c.seed,
            "eta": c.step_size,
            "final_objective": trace.final_objective,
            "final_per_pixel_error": float(np.vecdot(d, d) / d.shape[0]),
            "alpha_fit": alpha_fit,
            "total_inner_updates": trace.inner_updates,
            "wall_time_s": wall,
            **({"trace": trace} if traced else {}),
        })
    return rows


# ---------------------------------------------------------------------------
# output writers


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_trace_csv(path, trace):
    header = ["t", "F", "per_pixel_error", "sign_invariant_error",
              "proj_residual", "phase_flips"]
    rows = []
    for t in range(len(trace)):
        rows.append([t, float(trace.objective[t]), float(trace.per_pixel_error[t]),
                     float(trace.sign_error[t]), float(trace.proj_residual[t]),
                     float(trace.phase_flips[t])])
    write_csv(path, header, rows)


def write_pgm(path, x):
    """Plain-text PGM (P2), min-max scaled to 0..255; returns (lo, hi)."""
    side = math.isqrt(x.shape[0])
    if side * side != x.shape[0]:
        raise ValueError("image output needs a perfect-square signal length")
    lo, hi = float(np.min(x)), float(np.max(x))
    if hi - lo > 0:
        pix = np.rint((x - lo) / (hi - lo) * 255).astype(int)
    else:
        pix = np.zeros(x.shape[0], dtype=int)
    lines = ["P2", f"{side} {side}", "255"]
    grid = pix.reshape(side, side)
    lines.extend(" ".join(str(v) for v in row) for row in grid)
    Path(path).write_text("\n".join(lines) + "\n")
    return lo, hi


def _setup(cfg, ms=()):
    """A command's output directory, made, and its generator, built and
    checked against the rules that need the signal length n it fixes (and
    the measurement counts ``ms`` it builds matrices for)."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    net = build_generator(cfg)
    if cfg.problem == "mismatch" and cfg.sparsity > net.output_dim:
        raise ConfigError(f"sparsity ({cfg.sparsity}) must be <= output_dim "
                          f"({net.output_dim}) for problem 'mismatch'")
    if cfg.matrix_kind == "orthonormal" and any(m > net.output_dim for m in ms):
        raise ConfigError("orthonormal matrix_kind needs m <= output_dim")
    return out, net


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(cfg):
    out, net = _setup(cfg)
    path = out / cfg.weights_out
    save_weights(net, path)
    diameter = estimate_diameter(net, 200, RngStream(cfg.seed, spawn_key=(906,)))
    print(f"wrote {path}")
    print(f"latent_dim={net.latent_dim} output_dim={net.output_dim} "
          f"depth={net.depth} est_diameter={diameter:.6g}")
    return 0


def cmd_solve(cfg):
    out, net = _setup(cfg, (cfg.m,))
    basis = build_basis(cfg, net.output_dim)
    solver = cfg.single_solver()
    obj, x_star = build_instance(cfg, net, cfg.m, cfg.seed, basis)
    cell = _Cell(obj, resolve_eta(cfg, obj, net, cfg.seed, (solver,)), cfg.seed,
                 x_star=x_star)
    (row,) = _run_group(cfg, net, basis, solver, [cell], traced=True)
    trace = row.pop("trace")
    trace_path = out / "trace.csv"
    write_trace_csv(trace_path, trace)
    summary = {"problem": cfg.problem, **row}
    side = math.isqrt(net.output_dim)
    if cfg.image and side * side == net.output_dim:
        lo, hi = write_pgm(out / "x_hat.pgm", trace.x_hat)
        summary["image"] = "x_hat.pgm"
        summary["image_scale_lo"] = lo
        summary["image_scale_hi"] = hi
    summary_line = " ".join(f"{k}={_fmt(v)}" for k, v in summary.items())
    (out / "summary.txt").write_text(summary_line + "\n")
    print(summary_line)
    print(f"wrote {trace_path}")
    return 0


RESULT_COLUMNS = ("m", "seed", "solver", "final_per_pixel_error",
                  "final_objective", "alpha_fit", "total_inner_updates")


def _usable_cpus():
    """The CPUs this process may run on; 1 where a sweep does not fork."""
    if sys.platform != "linux":
        return 1
    return len(os.sched_getaffinity(0))


def _run_forked(fn, items):
    """fn(shard) for every shard of the items, concatenated in shard order.

    The items are dealt round-robin into one shard per usable CPU, at most
    one per item.  Shard 0 runs in this process, the others each in a
    forked child that inherits every input and sends its result (or its
    exception, re-raised here) back through a pipe.  Every child is reaped
    before this returns, and killed first when this process leaves on an
    exception.  While more than one shard runs, each process's BLAS pool
    gets its share of the usable CPUs, so the shards do not oversubscribe
    them; the count in this process is restored on return.
    """
    cpus = _usable_cpus()
    p = min(cpus, len(items))
    shards = [items[i::p] for i in range(p)]
    children = []  # (pid, result pipe) of the children not yet reaped
    threads = None  # this process's BLAS thread count before the shards
    try:
        if p > 1:
            threads = blas_threads(max(1, cpus // p))
        for shard in shards[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                status = 1
                try:
                    try:
                        out = (True, fn(shard))
                    except Exception as exc:  # re-raised by the parent
                        out = (False, exc)
                    with open(w, "wb") as pipe:
                        pipe.write(pickle.dumps(out, pickle.HIGHEST_PROTOCOL))
                    status = 0
                finally:
                    os._exit(status)  # never run the parent's cleanup
            os.close(w)
            children.append((pid, open(r, "rb")))
        results = fn(shards[0])
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()  # before waiting: a full pipe blocks the child
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if not data:
                raise ChildProcessError(
                    f"shard process {pid} exited with status "
                    f"{os.waitstatus_to_exitcode(status)} without a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results += value
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if threads is not None:
            blas_threads(threads)


def cmd_sweep(cfg):
    out, net = _setup(cfg, cfg.m_values())
    basis = build_basis(cfg, net.output_dim)
    solvers = cfg.solver_list()
    pairs = [(m, seed) for m in cfg.m_values() for seed in cfg.seed_list()]
    instances = [build_instance(cfg, net, m, seed, basis) for m, seed in pairs]
    cells = [_Cell(obj, resolve_eta(cfg, obj, net, seed, solvers), seed, x_star=x_star)
             for (_, seed), (obj, x_star) in zip(pairs, instances)]
    # Cells are independent, so any split keeps their bytes.  The round-robin
    # deal balances the shards and keeps runs of equal m together.
    results = _run_forked(lambda shard: [
        row for solver in solvers
        for row in _run_group(cfg, net, basis, solver, shard)], cells)
    results.sort(key=lambda r: (r["m"], r["seed"], solvers.index(r["solver"])))

    rows = [[r[c] for c in RESULT_COLUMNS] for r in results]
    # Per-(m, solver) medians of the error/objective columns, appended after
    # the per-cell rows with seed column 'median'.
    for m in cfg.m_values():
        for solver in solvers:
            sel = [r for r in results if r["m"] == m and r["solver"] == solver]
            rows.append([
                m, "median", solver,
                float(np.median([r["final_per_pixel_error"] for r in sel])),
                float(np.median([r["final_objective"] for r in sel])),
                float(np.median([r["alpha_fit"] for r in sel])),
                int(np.median([r["total_inner_updates"] for r in sel])),
            ])
    results_path = out / "results.csv"
    write_csv(results_path, RESULT_COLUMNS, rows)
    # Wall-clock lives in a text sidecar, not the CSV: result tables must
    # diff clean across reruns of the same config.  Each cell's line holds
    # the wall of its solver's group.
    timing_lines = ["m seed solver wall_time_s"]
    timing_lines += [f"{r['m']} {r['seed']} {r['solver']} {r['wall_time_s']:.6f}"
                     for r in results]
    (out / "timings.txt").write_text("\n".join(timing_lines) + "\n")
    print(f"wrote {results_path} ({len(rows)} rows)")
    return 0


def cmd_diagnose(cfg):
    out, net = _setup(cfg, (cfg.m,))
    basis = build_basis(cfg, net.output_dim)
    obj, x_star = build_instance(cfg, net, cfg.m, cfg.seed, basis)
    rng = RngStream(cfg.seed, spawn_key=(907,))

    def estimates():
        try:
            srec = diag.empirical_srec(obj.model.matrix, net, cfg.num_pairs,
                                       rng.derive(0))
            est = diag.rsc_rss_estimate(_diagnostic_objective(obj), net,
                                        cfg.num_pairs, rng.derive(1))
        except ValueError as exc:  # every pair is degenerate or not finite
            raise ConfigError(
                f"diagnose at seed {cfg.seed}: the estimates over num_pairs "
                f"({cfg.num_pairs}) range pairs failed: {exc}; change "
                f"{' or '.join(_generator_keys(cfg))}") from None
        # A problem without spikes never reads sparsity: bound it by n.
        mu = diag.incoherence_estimate(
            net, basis, min(cfg.num_pairs, 200), rng.derive(2),
            sparsity=min(max(cfg.sparsity, 1), net.output_dim))
        return srec, est, mu

    def solve():
        solver = cfg.single_solver()
        cell = _Cell(obj, resolve_eta(cfg, obj, net, cfg.seed, (solver,)), cfg.seed,
                     x_star=x_star)
        return _run_group(cfg, net, basis, solver, [cell])[0]

    # The estimates never read the solve: with a second CPU the solve runs
    # in a forked child, and the estimates stay in this process.
    (srec, est, mu), row = _run_forked(lambda shard: [part() for part in shard],
                                       [estimates, solve])

    report = {}
    report["gamma_hat"] = srec.gamma
    report["rho_hat"] = srec.rho
    report["pairs_used"] = srec.pairs_used
    report["alpha_hat"] = est.alpha
    report["beta_hat"] = est.beta
    report["beta_over_alpha"] = est.ratio
    bound, active = diag.contraction_bound_general(est)
    report["predicted_gap_factor"] = bound
    report["predicted_gap_factor_source"] = active
    report["mu_hat"] = mu
    if cfg.problem == "mismatch":
        report["predicted_mismatch_factor"] = diag.contraction_bound_mismatch(est, mu)

    window = diag.step_size_window_check(srec, row["eta"])
    report["eta"] = row["eta"]
    report["eta_in_window"] = window.in_window
    report["rho_sq_below_inv_eta"] = window.rho_sq_ok
    report["window_predicted_factor"] = window.predicted_factor
    report["solver"] = row["solver"]
    report["fitted_alpha"] = row["alpha_fit"]
    report["final_per_pixel_error"] = row["final_per_pixel_error"]

    for k, v in report.items():
        print(f"{k} = {_fmt(v)}")
    write_csv(out / "diagnostics.csv", ("key", "value"),
              [[k, v] for k, v in report.items()])
    print(f"wrote {out / 'diagnostics.csv'}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _add_common(p):
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=None)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="genprior",
        description="Reconstruction experiments under a generative prior.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("gen", cmd_gen), ("solve", cmd_solve),
                     ("sweep", cmd_sweep), ("diagnose", cmd_diagnose)):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides, seed=args.seed,
                          out=args.out, workers=args.workers)
        return args.fn(cfg)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
