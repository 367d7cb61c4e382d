"""Experiment harness: build instances, run solvers, write traces and sweeps.

Subcommands::

    genprior gen      --config c.txt [--out DIR]   write generator weights
    genprior solve    --config c.txt [--out DIR]   one solve -> trace.csv (+ image)
    genprior sweep    --config c.txt [--out DIR]   m x seed x solver grid -> results.csv
    genprior diagnose --config c.txt [--out DIR]   restricted-constant estimates

Configs are flat ``key = value`` text files ('#' starts a comment).  Every
key is declared once, with its default, as a field of ``ExperimentConfig``
and is validated before any computation runs; unknown keys are rejected
with the offending file and line.  Any key can be overridden on the command
line with ``--set key=value``; ``--seed``, ``--out`` and ``--workers`` are
shorthands for the keys of the same name.
The default output directory comes from ``$GENPRIOR_OUT``, else ``./out``.

A sweep builds each (m, seed) instance and resolves its step size once,
then deals the cells round-robin into one shard per usable CPU (at most one
per cell).  Shard 0 runs in this process and the others in forked children
(Linux only; elsewhere one shard), which inherit the instances and send back
only their summary rows.  Within a shard each solver runs as one lockstep
group over the shard's cells: phase starts are made one cell at a time,
then the solver steps every cell together (see ``solvers``), and the groups
run one after another, since a lockstep solve holds the interpreter lock
nearly throughout.  ``--workers`` is accepted and changes nothing.

``diagnose`` runs as two such shards: its restricted-constant estimates in
this process, and its step size and solve, which never meet the estimates,
in a forked child that sends back four summary values; with one usable CPU
both run here.  While shards run side by side, each process's OpenBLAS pool
is cut to its share of the usable CPUs, and restored when they are done.
A command builds the mismatch basis once, before any fork.

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
from .measurement import MeasurementModel, Observation, observe, observe_noisy
from .numerics import RngStream, blas_threads, gaussian_matrix
from .objectives import GRADIENT_SCALE, Objective
from .projection import ProjectionConfig
from .solvers import (
    SolverConfig,
    _Cell,
    _check_basis,
    _LatentCell,
    _latent_descent,
    _phase_cell,
    _projected_descent,
    phase_init,
)

__all__ = ["main", "entrypoint", "ConfigError", "ExperimentConfig", "load_config"]

PROBLEMS = ("linear", "sinusoid", "sigmoid", "phase", "mismatch")
SOLVERS = ("pgd", "eps_pgd", "phase_pgd", "myopic", "csgm", "dpr")

PROBLEM_LINK = {
    "linear": "linear",
    "sinusoid": "sinusoid",
    "sigmoid": "sigmoid",
    "phase": "magnitude",
    "mismatch": "linear",
}

DEFAULT_SOLVER = {
    "linear": "pgd",
    "sinusoid": "eps_pgd",
    "sigmoid": "eps_pgd",
    "phase": "phase_pgd",
    "mismatch": "myopic",
}

SOLVERS_FOR_PROBLEM = {
    "linear": ("pgd", "eps_pgd", "csgm"),
    "sinusoid": ("eps_pgd",),
    "sigmoid": ("eps_pgd",),
    "phase": ("phase_pgd", "dpr"),
    "mismatch": ("myopic",),
}

RATE_FLOOR = 1e-8


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


def _key(default, parse=None, choices=None):
    """A config key with a parser other than type(default), or a closed set
    of allowed values."""
    return field(default=default, metadata={"parse": parse, "choices": choices})


@dataclass(frozen=True)
class ExperimentConfig:
    """Every config key, its default and how its text value parses.

    Defaults follow the reference experimental protocol: eta 0.5 (0.9 for
    phase problems), 15 outer and 200 inner steps.  Keys without a
    ``_key`` declaration parse with the type of their default.
    """

    problem: str = _key("linear", choices=PROBLEMS)
    latent_dim: int = 20
    hidden_dims: tuple = _key((200,), _parse_int_list)
    output_dim: int = 784
    activation: str = _key("relu", choices=("relu", "tanh", "identity"))
    weight_scale: float = 1.0
    bias_scale: float = 0.0
    weight_seed: int = 0
    weights_path: str = ""
    weights_out: str = "generator.gpw"
    m: int = 100
    m_list: tuple = _key((), _parse_int_list)
    matrix_kind: str = _key("gaussian", choices=("gaussian", "orthonormal"))
    solver: str = ""
    solvers: tuple = _key((), _parse_str_list)
    eta: object = _key(None, _parse_eta)
    outer_steps: int = 15
    inner_steps: int = 200
    inner_rate: float = 0.01
    restarts: int = 1
    proj_init: str = _key("random", choices=("zero", "random"))
    seed: int = 0
    seeds: tuple = _key((), _parse_int_list)
    unit_norm_latent: bool = _key(False, _parse_bool)
    noise_std: float = 0.0
    sparsity: int = 5
    spike_scale: float = 5.0
    basis: str = _key("identity", choices=("identity", "random_ortho"))
    csgm_steps: int = 3000
    csgm_rate: float = 0.01
    dpr_steps: int = 2500
    dpr_rate: float = 0.01
    phase_init_strategy: str = _key("best_of_samples",
                                    choices=("best_of_samples", "oracle_perturb"))
    phase_init_count: int = 100
    phase_delta0: float = 0.1
    num_pairs: int = 500
    image: bool = _key(True, _parse_bool)
    out: str = ""
    workers: int = 1  # accepted and unused: a sweep shards over the usable CPUs

    def solver_list(self):
        if self.solvers:
            return self.solvers
        if self.solver:
            return (self.solver,)
        return (DEFAULT_SOLVER[self.problem],)

    def eta_value(self):
        """Configured step size; problem-dependent default when unset."""
        if self.eta is None:
            return 0.9 if self.problem == "phase" else 0.5
        return self.eta

    def seed_list(self):
        return self.seeds if self.seeds else (self.seed,)

    def m_values(self):
        return self.m_list if self.m_list else (self.m,)


_KEYS = {f.name: f for f in fields(ExperimentConfig)}


def _parse(key, raw):
    f = _KEYS[key]
    return (f.metadata.get("parse") or type(f.default))(raw)


def _validate(cfg):
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        choices = f.metadata.get("choices")
        if choices and v not in choices:
            raise ConfigError(f"{f.name} must be one of {choices}, got {v!r}")
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigError(f"{f.name} must be finite, got {v!r}")
    for name in ("m_list", "seeds", "solvers"):
        v = getattr(cfg, name)
        if len(set(v)) < len(v):
            raise ConfigError(f"{name} has duplicate entries: {v!r}")
    if cfg.latent_dim < 1 or cfg.output_dim < 1:
        raise ConfigError("latent_dim and output_dim must be positive")
    if any(h < 1 for h in cfg.hidden_dims):
        raise ConfigError("hidden_dims entries must be positive")
    if cfg.m < 1 or any(m < 1 for m in cfg.m_list):
        raise ConfigError("measurement counts must be positive")
    if cfg.outer_steps < 1 or cfg.inner_steps < 1 or cfg.restarts < 1:
        raise ConfigError("outer_steps, inner_steps and restarts must be >= 1")
    if cfg.inner_rate <= 0:
        raise ConfigError("inner_rate must be positive")
    if isinstance(cfg.eta, float) and cfg.eta <= 0:
        raise ConfigError("eta must be positive (or 'auto')")
    if cfg.noise_std < 0:
        raise ConfigError("noise_std must be nonnegative")
    if cfg.problem == "phase" and cfg.noise_std > 0:
        # Additive noise on |Ax| makes negative magnitudes, which phase_pgd
        # rejects; there is no noisy magnitude model.
        raise ConfigError("noise_std must be 0 for problem 'phase', "
                          f"got {cfg.noise_std!r}")
    if cfg.sparsity < 0:
        raise ConfigError("sparsity must be nonnegative")
    if cfg.num_pairs < 1:
        raise ConfigError("num_pairs must be >= 1")
    if cfg.csgm_rate <= 0 or cfg.dpr_rate <= 0:
        raise ConfigError("csgm_rate and dpr_rate must be positive")
    if cfg.csgm_steps < 1 or cfg.dpr_steps < 1 or cfg.phase_init_count < 1:
        raise ConfigError("csgm_steps, dpr_steps and phase_init_count must be >= 1")
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
    allowed = SOLVERS_FOR_PROBLEM[cfg.problem]
    for s in cfg.solver_list():
        if s not in SOLVERS:
            raise ConfigError(f"unknown solver {s!r} (choose from {SOLVERS})")
        if s not in allowed:
            raise ConfigError(
                f"solver {s!r} does not apply to problem {cfg.problem!r} "
                f"(choose from {allowed})"
            )
    return cfg


def load_config(path=None, overrides=(), seed=None, out=None, workers=None):
    """Assemble an ExperimentConfig from file, --set overrides and flags."""
    values = {}
    if path:
        for lineno, key, raw in _read_config_lines(path):
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _parse(key, raw)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"--set: unknown key {key!r}")
        try:
            values[key] = _parse(key, raw.strip())
        except ValueError as exc:
            raise ConfigError(f"--set {key}: bad value: {exc}")
    if seed is not None:
        values["seed"] = int(seed)
    if out is not None:
        values["out"] = str(out)
    if workers is not None:
        values["workers"] = int(workers)
    if not values.get("out"):
        values["out"] = os.environ.get("GENPRIOR_OUT", "out")
    return _validate(ExperimentConfig(**values))


def _read_config_lines(path):
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
        yield lineno, key.strip(), raw.strip()


# ---------------------------------------------------------------------------
# instance construction


def build_generator(cfg):
    if cfg.weights_path:
        return load_weights(cfg.weights_path)
    rng = RngStream(cfg.weight_seed, spawn_key=(901,))
    return random_generator(cfg.latent_dim, cfg.hidden_dims, cfg.output_dim,
                            cfg.activation, rng, weight_scale=cfg.weight_scale,
                            bias_scale=cfg.bias_scale)


def build_basis(cfg, n):
    """The checked n x n orthonormal basis that mismatch spikes are sparse
    in: the identity, or a random draw that depends on ``weight_seed``
    alone.  A command builds it once, after the generator has fixed n."""
    if cfg.sparsity > n:
        raise ConfigError(f"sparsity ({cfg.sparsity}) must be <= output_dim "
                          f"({n}) for problem 'mismatch'")
    if cfg.basis == "identity":
        b = np.eye(n)
    else:
        q, r = np.linalg.qr(RngStream(cfg.weight_seed, spawn_key=(902,))
                            .standard_normal((n, n)))
        b = q * np.sign(np.diag(r))  # fix signs so the draw is canonical
    return _check_basis(b, n, cfg.sparsity)[0]


def _command_basis(cfg, net):
    """The basis a command passes down: ``build_basis`` for mismatch, else
    None (no other problem reads one)."""
    return build_basis(cfg, net.output_dim) if cfg.problem == "mismatch" else None


def build_instance(cfg, net, m, seed, basis=None):
    """The Observation of a planted problem: x* = G(z*) (+ sparse spikes in
    ``basis`` for mismatch, built here when not given).

    The target depends only on the seed; the sensing matrix depends on
    (seed, m) so each sweep column sees fresh measurements of the same
    signal.
    """
    root = RngStream(seed)
    z_star = root.derive(0).standard_normal(net.latent_dim)
    if cfg.unit_norm_latent:
        z_star = z_star / np.linalg.norm(z_star)
    x_base = forward(net, z_star)
    x_star = x_base
    if cfg.problem == "mismatch":
        if basis is None:
            basis = build_basis(cfg, net.output_dim)
        spike_rng = root.derive(2)
        support = spike_rng.permutation(net.output_dim)[: cfg.sparsity]
        scale = cfg.spike_scale * np.linalg.norm(x_base) / np.sqrt(net.output_dim)
        coeffs = np.zeros(net.output_dim)
        coeffs[support] = scale * np.where(
            spike_rng.standard_normal(cfg.sparsity) >= 0, 1.0, -1.0
        )
        x_star = x_base + basis @ coeffs
    n = net.output_dim
    if cfg.matrix_kind == "orthonormal":
        if m > n:
            raise ConfigError("orthonormal matrix_kind needs m <= output_dim")
        q, r = np.linalg.qr(root.derive(1, m).standard_normal((n, n)))
        a = (q * np.sign(np.diag(r))).T[:m]
    else:
        a = gaussian_matrix(m, n, 1.0 / m, root.derive(1, m))
    model = MeasurementModel(matrix=a, link=PROBLEM_LINK[cfg.problem])
    if cfg.noise_std > 0:
        y = observe_noisy(model, x_star, cfg.noise_std, root.derive(3))
    else:
        y = observe(model, x_star)
    return Observation(y=y, model=model, x_star=x_star, z_star=z_star)


def _solver_config(cfg, eta, seed, x_star):
    proj = ProjectionConfig(inner_steps=cfg.inner_steps, inner_rate=cfg.inner_rate,
                            restarts=cfg.restarts, init=cfg.proj_init)
    return SolverConfig(outer_steps=cfg.outer_steps, step_size=eta,
                        projection=proj, seed=seed, ground_truth=x_star)


def _diagnostic_objective(model, y):
    """Objective for curvature probes; magnitude links get a unit phase
    (the quadratic curvature of ||y*p - Ax||^2 does not depend on p)."""
    if model.link == "magnitude":
        return Objective(model, y, phase=np.ones(model.num_measurements))
    return Objective(model, y)


def resolve_eta(cfg, obs, net, seed):
    """Step size from config; 'auto' uses 1/beta of the solver's potential."""
    eta = cfg.eta_value()
    if eta != "auto":
        return float(eta)
    obj = _diagnostic_objective(obs.model, obs.y)
    est = diag.rsc_rss_estimate(obj, net, cfg.num_pairs,
                                RngStream(seed, spawn_key=(903,)))
    return 1.0 / (GRADIENT_SCALE[obj.kind] * est.beta)


def _phase_start(cfg, net, obs, seed):
    """The phase_pgd start point of one instance."""
    init_rng = RngStream(seed, spawn_key=(904,))
    if cfg.phase_init_strategy == "oracle_perturb":
        return phase_init(obs.y, obs.model.matrix, net, init_rng,
                          strategy="oracle_perturb", delta0=cfg.phase_delta0,
                          x_star=obs.x_star)
    return phase_init(obs.y, obs.model.matrix, net, init_rng,
                      strategy="best_of_samples", count=cfg.phase_init_count)


def _solve_group(cfg, net, solver, seeds, obs, scfgs, basis):
    """The traces of one solver on the given instances, stepped in lockstep;
    ``basis`` is the command's mismatch basis, which myopic thresholds in."""
    if solver in ("csgm", "dpr"):
        steps, rate, kind = ((cfg.csgm_steps, cfg.csgm_rate, "squared")
                             if solver == "csgm" else
                             (cfg.dpr_steps, cfg.dpr_rate, "magnitude"))
        return _latent_descent(net, steps, rate, kind, [
            _LatentCell(o.y, o.model.matrix, RngStream(seed, spawn_key=(905,)),
                        x_star=o.x_star)
            for o, seed in zip(obs, seeds)])
    if solver == "phase_pgd":
        return _projected_descent(net, [
            _phase_cell(o.y, o.model.matrix, net, scfg,
                        _phase_start(cfg, net, o, seed))
            for o, seed, scfg in zip(obs, seeds, scfgs)])
    if solver not in ("pgd", "eps_pgd", "myopic"):
        raise ConfigError(f"unknown solver {solver!r}")
    sparse = (basis, cfg.sparsity) if solver == "myopic" else None
    return _projected_descent(net, [_Cell(Objective(o.model, o.y), scfg)
                                    for o, scfg in zip(obs, scfgs)], sparse)


def _run_group(cfg, net, ms, seeds, solver, obs, etas, basis):
    """The cells of one solver's lockstep group, one per (m, seed) pair,
    given each cell's instance and step size and the command's basis.

    Phase starts are made one cell at a time; then the solver steps every
    cell of the group in lockstep, with the bits each cell has on its own.
    Every cell's ``wall_time_s`` is the wall of the group's solve.
    """
    scfgs = [_solver_config(cfg, eta, seed, o.x_star)
             for o, eta, seed in zip(obs, etas, seeds)]
    t0 = time.perf_counter()
    traces = _solve_group(cfg, net, solver, seeds, obs, scfgs, basis)
    wall = time.perf_counter() - t0
    cells = []
    for m, seed, eta, trace in zip(ms, seeds, etas, traces):
        try:
            alpha_fit = diag.convergence_rate(trace, RATE_FLOOR).alpha_fit
        except ValueError:
            alpha_fit = float("nan")
        cells.append({
            "m": m,
            "seed": seed,
            "solver": solver,
            "trace": trace,
            "eta": eta,
            "final_per_pixel_error": trace.final_per_pixel_error,
            "final_objective": trace.final_objective,
            "alpha_fit": alpha_fit,
            "total_inner_updates": trace.inner_updates,
            "wall_time_s": wall,
        })
    return cells


def run_cell(cfg, net, m, seed, solver, obs=None, eta=None, basis=None):
    """One (m, seed, solver) run; returns the trace plus summary fields.

    A caller that already built the instance, resolved the step size or
    built the basis passes them as ``obs``, ``eta`` and ``basis``.
    """
    if basis is None:
        basis = _command_basis(cfg, net)
    if obs is None:
        obs = build_instance(cfg, net, m, seed, basis)
    if eta is None:
        eta = resolve_eta(cfg, obs, net, seed)
    return _run_group(cfg, net, (m,), (seed,), solver, [obs], [eta], basis)[0]


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


def _ensure_out(cfg):
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(cfg):
    out = _ensure_out(cfg)
    net = build_generator(cfg)
    path = out / cfg.weights_out
    save_weights(net, path)
    diameter = estimate_diameter(net, 200, RngStream(cfg.seed, spawn_key=(906,)))
    print(f"wrote {path}")
    print(f"latent_dim={net.latent_dim} output_dim={net.output_dim} "
          f"depth={net.depth} est_diameter={diameter:.6g}")
    return 0


def cmd_solve(cfg):
    out = _ensure_out(cfg)
    net = build_generator(cfg)
    cell = run_cell(cfg, net, cfg.m, cfg.seed, cfg.solver_list()[0])
    trace = cell["trace"]
    trace_path = out / "trace.csv"
    write_trace_csv(trace_path, trace)
    summary = {
        "problem": cfg.problem,
        "solver": cell["solver"],
        "m": cell["m"],
        "seed": cell["seed"],
        "eta": cell["eta"],
        "final_objective": cell["final_objective"],
        "final_per_pixel_error": cell["final_per_pixel_error"],
        "alpha_fit": cell["alpha_fit"],
        "total_inner_updates": cell["total_inner_updates"],
        "wall_time_s": cell["wall_time_s"],
    }
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


def _sweep_shard(cfg, net, basis, solvers, cells):
    """The summary rows of every solver's lockstep group over one shard's
    (m, seed, instance, eta) cells.  Each row keeps a cell's summary, not
    its trace: the traces of a whole sweep would pile up in memory."""
    ms, seeds, obs, etas = zip(*cells)
    return [{k: cell[k] for k in (*RESULT_COLUMNS, "wall_time_s")}
            for solver in solvers
            for cell in _run_group(cfg, net, ms, seeds, solver, obs, etas, basis)]


def _run_forked(fn, shards):
    """fn(shard) for every shard, concatenated in shard order.

    Shard 0 runs in this process, the others each in a forked child that
    inherits every input and sends its result (or its exception, re-raised
    here) back through a pipe.  Every child is reaped before this returns,
    and killed first when this process leaves on an exception.  While more
    than one shard runs, each process's BLAS pool gets its share of the
    usable CPUs, so the shards do not oversubscribe them; the count in this
    process is restored on return.
    """
    children = []  # (pid, result pipe) of the children not yet reaped
    threads = None  # this process's BLAS thread count before the shards
    try:
        if len(shards) > 1:
            threads = blas_threads(max(1, _usable_cpus() // len(shards)))
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
    out = _ensure_out(cfg)
    net = build_generator(cfg)
    basis = _command_basis(cfg, net)
    solvers = cfg.solver_list()
    ms, seeds = zip(*[(m, seed) for m in cfg.m_values() for seed in cfg.seed_list()])
    obs = [build_instance(cfg, net, m, seed, basis) for m, seed in zip(ms, seeds)]
    etas = [resolve_eta(cfg, o, net, seed) for o, seed in zip(obs, seeds)]
    # Cells are independent, so any split keeps their bytes.  Dealing them
    # round-robin balances the shards and keeps runs of equal m together.
    cells = list(zip(ms, seeds, obs, etas))
    p = min(_usable_cpus(), len(cells))
    results = _run_forked(lambda shard: _sweep_shard(cfg, net, basis, solvers, shard),
                          [cells[i::p] for i in range(p)])
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
    out = _ensure_out(cfg)
    net = build_generator(cfg)
    basis = _command_basis(cfg, net)
    obs = build_instance(cfg, net, cfg.m, cfg.seed, basis)
    rng = RngStream(cfg.seed, spawn_key=(907,))

    def estimates():
        srec = diag.empirical_srec(obs.model.matrix, net, cfg.num_pairs, rng.derive(0))
        est = diag.rsc_rss_estimate(_diagnostic_objective(obs.model, obs.y), net,
                                    cfg.num_pairs, rng.derive(1))
        mu = diag.incoherence_estimate(
            net, np.eye(net.output_dim) if basis is None else basis,
            min(cfg.num_pairs, 200), rng.derive(2), sparsity=max(cfg.sparsity, 1))
        return srec, est, mu

    def solve():
        eta = resolve_eta(cfg, obs, net, cfg.seed)
        cell = run_cell(cfg, net, cfg.m, cfg.seed, cfg.solver_list()[0], obs=obs,
                        eta=eta, basis=basis)
        return {k: cell[k] for k in ("eta", "solver", "alpha_fit",
                                     "final_per_pixel_error")}

    # The estimates never read the solve: with a second CPU the solve runs
    # in a forked child, and the estimates stay in this process.
    parts = [estimates, solve]
    shards = [parts] if _usable_cpus() < 2 else [[part] for part in parts]
    (srec, est, mu), cell = _run_forked(lambda shard: [part() for part in shard],
                                        shards)

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

    window = diag.step_size_window_check(srec, cell["eta"])
    report["eta"] = cell["eta"]
    report["eta_in_window"] = window.in_window
    report["rho_sq_below_inv_eta"] = window.rho_sq_ok
    report["window_predicted_factor"] = window.predicted_factor
    report["solver"] = cell["solver"]
    report["fitted_alpha"] = cell["alpha_fit"]
    report["final_per_pixel_error"] = cell["final_per_pixel_error"]

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
