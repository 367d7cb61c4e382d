"""Per-layer tracing of genprior from outside the package.

The tracer wraps every public module-level function of each genprior
module and patches the wrapper into every module namespace that holds the
original, because the modules import each other's names with
``from .x import y`` (``solvers.project``, ``projection.forward``,
``diagnostics.value`` ...).  Nothing under ``src/`` changes and nothing is
traced inside a function body.

Spans are aggregated as they close instead of being logged one by one: a
traced sweep makes millions of ``forward`` calls.  For each caller->callee
edge the tracer keeps the call count, total time and self time (total minus
the time of wrapped calls made beneath it).  Stacks and aggregates live per
thread, because ``genprior sweep`` runs cells on a thread pool; they are
merged only when read, between commands.

A few functions carry hooks that derive counts where the work happens:
GEMV flop counts from argument shapes, the best inner step of each
projection (by watching ``forward`` outputs inside ``project``), the loss
kind of each objective gradient, and the cell start times of each sweep.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("numerics", "generator", "measurement", "objectives", "projection",
          "solvers", "diagnostics", "cli")

# Solver entry points whose result ends with a SolveTrace.
TRACE_SOLVERS = ("pgd_linear", "eps_pgd", "phase_pgd", "myopic_eps_pgd",
                 "csgm_baseline", "dpr_baseline")
BASELINES = ("csgm_baseline", "dpr_baseline")


def dense_flops(net):
    """Multiply-add flops of one dense pass through every layer, as 2*in*out."""
    return sum(2 * layer.in_dim * layer.out_dim for layer in net.layers)


@dataclass(slots=True)
class EdgeStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass(slots=True)
class Frame:
    name: str
    child_s: float = 0.0
    ctx: object = None


@dataclass(slots=True)
class ProjectContext:
    """State of one ``project`` call, filled in by the nested forward hook."""

    x: object
    steps_per_restart: int
    forwards: int = 0
    best_res: float = float("inf")
    best_step: int = 0
    flops: int = 0


@dataclass
class ThreadStats:
    stack: list = field(default_factory=list)
    edges: dict = field(default_factory=lambda: defaultdict(EdgeStats))
    flops: dict = field(default_factory=lambda: defaultdict(int))
    kind_grad: dict = field(default_factory=lambda: defaultdict(EdgeStats))
    proj_flops: int = 0
    proj_steps: int = 0
    useful_fracs: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    inner_updates: int = 0
    ld_steps: int = 0
    ld_total_s: float = 0.0
    pairs: int = 0


@dataclass
class SweepRecord:
    workers: int
    wall_s: float = 0.0
    cell_starts: list = field(default_factory=list)
    cell_cpu_s: list = field(default_factory=list)


class Tracer:
    """Aggregating span tracer; install it with :meth:`installed`."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._sweep = None
        self.sweeps = []

    # -- per-thread state -------------------------------------------------

    def _stats(self):
        st = getattr(self._local, "stats", None)
        if st is None:
            st = ThreadStats()
            self._local.stats = st
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(self, name, fn):
        pre = _PRE_HOOKS.get(name)
        post = _POST_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._stats()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = Frame(name)
            if pre is not None:
                pre(self, st, frame, args)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                edge = st.edges[(parent.name if parent else "", name)]
                edge.calls += 1
                edge.total_s += dt
                edge.self_s += dt - frame.child_s
            if post is not None:
                post(self, st, frame, parent, args, result, dt)
            if parent is not None:
                # Hook time is tracing cost; keep it out of the parent's self time.
                parent.child_s += clock() - t0
            return result

        return wrapper

    @contextmanager
    def installed(self, package):
        """Patch wrappers into every genprior module for the duration."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj)
        patched = []
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        try:
            yield self
        finally:
            for mod, name, obj in patched:
                setattr(mod, name, obj)

    # -- merged views (call between commands, never during one) ----------

    def edges(self):
        """(caller, callee) -> EdgeStats summed over threads; a call made at
        the bottom of a thread's stack has caller ""."""
        out = defaultdict(EdgeStats)
        for st in self._threads:
            for key, e in st.edges.items():
                agg = out[key]
                agg.calls += e.calls
                agg.total_s += e.total_s
                agg.self_s += e.self_s
        return out

    def totals(self):
        """callee -> EdgeStats summed over callers and threads."""
        out = defaultdict(EdgeStats)
        for (_, name), e in self.edges().items():
            agg = out[name]
            agg.calls += e.calls
            agg.total_s += e.total_s
            agg.self_s += e.self_s
        return out

    def counts(self):
        """Everything the tracer counts rather than times; must repeat exactly."""
        # Per callee, not per edge: a sweep cell's caller depends on whether
        # it ran on a pool thread.
        c = {f"calls:{name}": e.calls for name, e in self.totals().items()}
        for key in ("proj_flops", "proj_steps", "inner_updates", "ld_steps", "pairs"):
            c[key] = self.summed(key)
        c.update({f"flops:{kind}": n for kind, n in self.flops().items()})
        return c

    def merged(self, attr):
        vals = []
        for st in self._threads:
            vals.extend(getattr(st, attr))
        return vals

    def summed(self, attr):
        return sum(getattr(st, attr) for st in self._threads)

    def kind_grad(self):
        out = defaultdict(EdgeStats)
        for st in self._threads:
            for kind, e in st.kind_grad.items():
                out[kind].calls += e.calls
                out[kind].total_s += e.total_s
        return out

    def flops(self):
        out = defaultdict(int)
        for st in self._threads:
            for kind, n in st.flops.items():
                out[kind] += n
        return out


# -- hooks ----------------------------------------------------------------
# Signatures: pre(tracer, stats, frame, args) and
# post(tracer, stats, frame, parent, args, result, dt).


def _forward_post(tracer, st, frame, parent, args, result, dt):
    net, z = args[0], args[1]
    batch = z.shape[0] if getattr(z, "ndim", 1) == 2 else 1
    flops = batch * dense_flops(net)
    st.flops["forward"] += flops
    if parent is not None and parent.name == "projection.project":
        ctx = parent.ctx
        ctx.flops += flops
        # Mirror project(): the residual of every forward output, the first
        # strict improvement wins.  Forward j of a call is inner step
        # j mod (inner_steps + 1) of restart j div (inner_steps + 1).
        d = ctx.x - result
        res = float(d @ d)
        if res < ctx.best_res:
            ctx.best_res = res
            ctx.best_step = ctx.forwards % ctx.steps_per_restart
        ctx.forwards += 1


def _latent_gradient_post(tracer, st, frame, parent, args, result, dt):
    flops = 2 * dense_flops(args[0])  # forward sweep plus backward sweep
    st.flops["latent_gradient"] += flops
    if parent is not None and parent.name == "projection.project":
        parent.ctx.flops += flops


def _project_pre(tracer, st, frame, args):
    cfg = args[2]
    frame.ctx = ProjectContext(x=args[1], steps_per_restart=cfg.inner_steps + 1)


def _project_post(tracer, st, frame, parent, args, result, dt):
    cfg = args[2]
    ctx = frame.ctx
    st.proj_flops += ctx.flops
    st.proj_steps += cfg.restarts * cfg.inner_steps
    st.useful_fracs.append(ctx.best_step / cfg.inner_steps)
    st.residuals.append(result.residual)


def _gradient_post(tracer, st, frame, parent, args, result, dt):
    e = st.kind_grad[args[0].kind]
    e.calls += 1
    e.total_s += dt


def _solver_post(tracer, st, frame, parent, args, result, dt):
    trace = result[-1]
    st.inner_updates += trace.inner_updates
    if frame.name.split(".", 1)[1] in BASELINES:
        st.ld_steps += trace.inner_updates
        st.ld_total_s += dt


def _rsc_post(tracer, st, frame, parent, args, result, dt):
    st.pairs += result.samples


def _sweep_pre(tracer, st, frame, args):
    rec = SweepRecord(workers=args[0].workers)
    with tracer._lock:
        tracer._sweep = rec


def _sweep_post(tracer, st, frame, parent, args, result, dt):
    with tracer._lock:
        rec, tracer._sweep = tracer._sweep, None
        rec.wall_s = dt
        tracer.sweeps.append(rec)


def _run_cell_pre(tracer, st, frame, args):
    frame.ctx = time.thread_time()
    with tracer._lock:
        if tracer._sweep is not None:
            tracer._sweep.cell_starts.append(time.perf_counter())


def _run_cell_post(tracer, st, frame, parent, args, result, dt):
    with tracer._lock:
        if tracer._sweep is not None:
            tracer._sweep.cell_cpu_s.append(time.thread_time() - frame.ctx)


_PRE_HOOKS = {
    "projection.project": _project_pre,
    "cli.cmd_sweep": _sweep_pre,
    "cli.run_cell": _run_cell_pre,
}

_POST_HOOKS = {
    "generator.forward": _forward_post,
    "generator.latent_gradient": _latent_gradient_post,
    "projection.project": _project_post,
    "objectives.gradient": _gradient_post,
    "diagnostics.rsc_rss_estimate": _rsc_post,
    "cli.cmd_sweep": _sweep_post,
    "cli.run_cell": _run_cell_post,
    **{f"solvers.{name}": _solver_post for name in TRACE_SOLVERS},
}


def sweep_stats(sweeps):
    """Parallel efficiency and median queue wait over multi-worker sweeps.

    Efficiency is the CPU time the cells' threads used over workers x sweep
    wall; a thread waiting for the interpreter lock uses none.  A cell's
    wait is its start minus the first cell start of its sweep: the pool
    receives every cell at once, so the first start marks submission.
    """
    par = [s for s in sweeps if s.workers > 1 and s.cell_starts]
    if not par:
        return 0.0, 0.0
    busy = sum(sum(s.cell_cpu_s) for s in par)
    capacity = sum(s.workers * s.wall_s for s in par)
    waits = [t - min(s.cell_starts) for s in par for t in s.cell_starts]
    return busy / capacity, statistics.median(waits)
