"""genprior benchmark: closed-loop CLI workloads, end to end or traced.

    python3 perfbench/run.py --workload solve_mnist --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the benchmark imports genprior from the
checkout's ``src/`` and writes scratch output under ``.perfbench_out/``,
which it removes on exit.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it holds the run's details (machine block, instance seeds,
tail percentiles).  ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones.  See README.md for what each measures.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_out"

import tracer as tr  # noqa: E402  (sibling modules of this script)
import workloads as wl  # noqa: E402

# Set-up probes per run, half before and half after the timed loop, so
# the median spans more than one phase of background load.
SETUP_REPEATS = 8
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 60


# ---------------------------------------------------------------------------
# command execution


@dataclass
class Record:
    cmd: wl.Command
    wall_s: float
    errors: list
    files: dict
    inner_updates: int = 0


class Runner:
    """Runs commands through ``genprior.cli.main`` and checks every output.

    Byte fingerprints are kept per command key for the whole run, so a
    command whose outputs change between two executions fails.
    """

    def __init__(self, cli, reference, scratch):
        self.cli = cli
        self.reference = reference
        self.scratch = scratch
        self.fingerprints = {}
        self.records = []

    def execute(self, cmd):
        out = self.scratch / f"cmd{len(self.records)}"
        errors, files = [], {}
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main(cmd.argv(out))
        except Exception:  # a command that raises is a failed command
            rc = None
            errors.append(traceback.format_exc(limit=4))
        wall = time.perf_counter() - t0
        if rc is not None and rc != 0:
            errors.append(f"exit status {rc}")
        inner = 0
        if not errors:
            try:
                files = wl.read_outputs(out)
                errors = wl.check(cmd, files, self.reference)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors = [f"unreadable output: {exc!r}"]
            fp = wl.fingerprint(cmd, files)
            if self.fingerprints.setdefault(cmd.key, fp) != fp:
                errors.append("output bytes differ from an earlier execution")
            if not errors:
                inner = wl.inner_updates(cmd, files)
        shutil.rmtree(out, ignore_errors=True)
        if errors:
            print(f"FAILED {cmd.key}: {errors[:3]}", file=sys.stderr)
        rec = Record(cmd, wall, errors, files, inner)
        self.records.append(rec)
        return rec

    def run_all(self, cmds):
        t0 = time.perf_counter()
        recs = [self.execute(c) for c in cmds]
        return recs, time.perf_counter() - t0

    @property
    def failed(self):
        return sum(1 for r in self.records if r.errors)

    def self_check(self):
        """The checks must reject a perturbed copy of a correct output and a
        changed byte; returns a list of checks that did not."""
        rec = next((r for r in self.records if not r.errors), None)
        if rec is None:
            return ["no correct command to perturb"]
        problems = []
        if not wl.check(rec.cmd, wl.perturbed(rec.cmd, rec.files), self.reference):
            problems.append("perturbed output passed the reference check")
        flipped = dict(rec.files)
        name = sorted(n for n in flipped if n != "timings.txt")[0]
        flipped[name] = flipped[name] + b" "
        if wl.fingerprint(rec.cmd, flipped) == wl.fingerprint(rec.cmd, rec.files):
            problems.append("changed bytes kept the same fingerprint")
        return problems


def closed_loop(runner, cycles, seconds):
    """Repeat whole cycles; start another only while it should end closer
    to the time budget than stopping now would."""
    recs = []
    t0 = time.perf_counter()
    i = 0
    while True:
        c0 = time.perf_counter()
        recs += [runner.execute(c) for c in cycles[i % len(cycles)]]
        i += 1
        now = time.perf_counter()
        if now - t0 + (now - c0) / 2 >= seconds:
            return recs


# ---------------------------------------------------------------------------
# helpers


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples above it, as
    (value, percentile); with too few samples, the maximum at 100."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(cmd, repeats):
    """Walls of fresh interpreters that import genprior, load the config
    and build the first generator and instance."""
    overrides, m, seed = cmd.first_instance()
    arg = json.dumps([overrides, m, seed])
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), arg],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0 or not proc.stdout.strip().startswith(str(SRC)):
            raise RuntimeError(f"setup probe failed: {proc.stderr[-500:]}")
    return walls


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def _scipy_us(node):
    """Cumulative import time of the outermost scipy modules under node."""
    depth, name, cum, kids = node
    if name.split(".")[0] == "scipy":
        return cum
    return sum(_scipy_us(k) for k in kids)


def import_profile():
    """(import genprior seconds, share of it spent importing scipy), medians
    over fresh interpreters under ``python -X importtime``."""
    totals, shares = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import genprior"],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
        # Entries print children first, one level deeper than their parent;
        # what is left on the stack are the top-level imports.
        stack = []
        for line in proc.stderr.splitlines():
            mt = _IMPORTTIME.match(line)
            if not mt:
                continue
            depth, name, cum = len(mt.group(3)), mt.group(4), int(mt.group(2))
            kids = []
            while stack and stack[-1][0] > depth:
                kids.append(stack.pop())
            stack.append((depth, name, cum, kids))
        pkg = next(r for r in stack if r[1] == "genprior")
        totals.append(pkg[2] / 1e6)
        shares.append(_scipy_us(pkg) / pkg[2])
    return statistics.median(totals), statistics.median(shares)


def openblas_threads():
    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_block():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for p in src_files:
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": openblas_threads(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src_files),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# end-to-end run


ALIASES = {
    "solve_mnist": ("solve_s_p50", "solve_s_tail"),
    "diagnose_auto": ("diagnose_s_p50", "diagnose_s_tail"),
    "sweep_small": ("sweep_s_p50", "sweep_s_tail"),
}


def run_end_to_end(args, runner, seeds, cycles):
    setups = measure_setup(cycles[0][0], SETUP_REPEATS // 2)
    runner.execute(wl.warmup_command(args.workload, seeds))
    recs = closed_loop(runner, cycles, args.seconds)
    setups += measure_setup(cycles[0][0], SETUP_REPEATS - SETUP_REPEATS // 2)
    setup_s = statistics.median(setups)
    walls = [r.wall_s for r in recs]
    total = sum(walls)
    t_val, t_pct = tail(walls)
    p50 = statistics.median(walls)
    attempted = len(runner.records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "cmd_s_p50": (p50, "s"),
        "cmd_s_tail": (t_val, "s"),
        "inner_steps_per_s": (sum(r.inner_updates for r in recs) / total, "1/s"),
        "cells_per_s": (sum(r.cmd.cells for r in recs if not r.errors) / total, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_frac": ((attempted - runner.failed) / attempted, "frac"),
    }
    p50_name, tail_name = ALIASES[args.workload]
    by_problem = {}
    for r in recs:
        by_problem.setdefault(r.cmd.problem, []).append(r.wall_s)
    detail = {
        p50_name: p50,
        tail_name: t_val,
        "tail_percentile": t_pct,
        "samples": len(walls),
        "cmd_s_p50_by_problem": {k: statistics.median(v) for k, v in by_problem.items()},
        "measured_s": total,
        "walls_s": [round(w, 4) for w in walls],
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# traced run


def per_call_s(fn, *args, calls=200, batches=5):
    """Median over batches of the mean wall of one call."""
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def layer_microbench(gen, net, rng_seed):
    """Per-call forward and backward time of each generator layer alone,
    timed through the package's own forward/latent_gradient on one-layer
    nets, plus its weight bytes."""
    import numpy as np

    rng = np.random.default_rng(rng_seed)
    h = rng.standard_normal(net.latent_dim)
    out = {}
    for i, layer in enumerate(net.layers):
        sub = gen.GeneratorNet(layers=(layer,))
        cot = rng.standard_normal(layer.out_dim)
        fwd = per_call_s(gen.forward, sub, h)
        both = per_call_s(gen.latent_gradient, sub, h, cot)
        out[i] = (1e6 * fwd, 1e6 * (both - fwd),
                  layer.weights.nbytes + layer.bias.nbytes)
        h = gen.forward(sub, h)
    return out


MAX_LAYERS = 3
KINDS = ("squared", "sim_sigmoid", "sinusoid_l2", "phase_corrected")
SOLVER_ENTRIES = ("pgd_linear", "eps_pgd", "phase_pgd", "myopic_eps_pgd",
                  "phase_init", "csgm_baseline", "dpr_baseline", "thresh_in_basis")
DIAG_ENTRIES = ("empirical_srec", "rsc_rss_estimate", "incoherence_estimate",
                "convergence_rate")
CLI_ENTRIES = ("load_config", "build_generator", "build_instance", "resolve_eta",
               "run_cell", "write_trace_csv", "write_pgm", "write_csv")


def per_layer_metrics(t, layers, overhead, speedup, import_s, scipy_share):
    tot = t.totals()
    flops = t.flops()
    m = {}

    def ratio(a, b):
        return a / b if b else 0.0

    for fn in ("forward", "latent_gradient"):
        e = tot[f"generator.{fn}"]
        m[f"generator.{fn}.calls"] = (e.calls, "count")
        m[f"generator.{fn}.self_s"] = (e.self_s, "s")
        m[f"generator.{fn}.us_per_call"] = (1e6 * ratio(e.total_s, e.calls), "us")
    for i in range(MAX_LAYERS):
        fwd, bwd, nbytes = layers.get(i, (0.0, 0.0, 0))
        m[f"generator.layer{i}.forward_us"] = (fwd, "us")
        m[f"generator.layer{i}.backward_us"] = (bwd, "us")
        m[f"generator.layer{i}.weight_bytes"] = (nbytes, "bytes")
    gen_s = tot["generator.forward"].total_s + tot["generator.latent_gradient"].total_s
    m["generator.achieved_gflops"] = (
        ratio(flops["forward"] + flops["latent_gradient"], gen_s) / 1e9, "GFLOP/s")

    p = tot["projection.project"]
    steps = t.summed("proj_steps")
    useful = t.merged("useful_fracs")
    residuals = t.merged("residuals")
    m["projection.project.calls"] = (p.calls, "count")
    m["projection.project.total_s"] = (p.total_s, "s")
    m["projection.project.self_s"] = (p.self_s, "s")
    m["projection.inner_step_us"] = (1e6 * ratio(p.total_s, steps), "us")
    m["projection.flops_per_inner_step"] = (ratio(t.summed("proj_flops"), steps), "flop")
    m["projection.useful_step_frac"] = (statistics.fmean(useful) if useful else 0.0, "frac")
    m["projection.residual_p50"] = (statistics.median(residuals) if residuals else 0.0,
                                    "sq_norm")

    for fn in ("value", "gradient", "true_gradient"):
        e = tot[f"objectives.{fn}"]
        m[f"objectives.{fn}.calls"] = (e.calls, "count")
        m[f"objectives.{fn}.self_s"] = (e.self_s, "s")
    kinds = t.kind_grad()
    for kind in KINDS:
        e = kinds[kind]
        m[f"objectives.gradient.{kind}_us"] = (1e6 * ratio(e.total_s, e.calls), "us")

    for fn in DIAG_ENTRIES:
        m[f"diagnostics.{fn}.self_s"] = (tot[f"diagnostics.{fn}"].self_s, "s")
    m["diagnostics.pairs_per_s"] = (
        ratio(t.summed("pairs"), tot["diagnostics.rsc_rss_estimate"].total_s), "1/s")

    for fn in SOLVER_ENTRIES:
        m[f"solvers.{fn}.self_s"] = (tot[f"solvers.{fn}"].self_s, "s")
    m["solvers.latent_descent_step_us"] = (
        1e6 * ratio(t.summed("ld_total_s"), t.summed("ld_steps")), "us")
    m["solvers.inner_updates"] = (t.summed("inner_updates"), "count")

    m["measurement.observe.self_s"] = (tot["measurement.observe"].self_s, "s")
    m["numerics.gaussian_matrix.self_s"] = (tot["numerics.gaussian_matrix"].self_s, "s")
    for fn in CLI_ENTRIES:
        m[f"cli.{fn}.self_s"] = (tot[f"cli.{fn}"].self_s, "s")
    eff, wait = tr.sweep_stats(t.sweeps)
    m["cli.sweep.parallel_eff"] = (eff, "frac")
    m["cli.sweep.cell_wait_s_p50"] = (wait, "s")
    m["cli.sweep.speedup_vs_1_worker"] = (speedup, "x")
    m["init.import_s"] = (import_s, "s")
    m["init.scipy_import_share"] = (scipy_share, "frac")
    m["trace.overhead_frac"] = (overhead, "frac")
    return m


def run_traced(args, genprior, runner, seeds, cycles):
    """One untraced and one traced pass over the same commands, a second
    traced pass to show the counts repeat, and the serial sweep baseline."""
    cli = genprior.cli
    runner.execute(wl.warmup_command(args.workload, seeds))
    cmds = [c for cyc in cycles for c in cyc]
    plain, wall_plain = runner.run_all(cmds)

    main = tr.Tracer()
    t0 = time.perf_counter()
    with main.installed(genprior):
        runner.execute(cmds[0])
        first_counts = main.counts()
        for c in cmds[1:]:
            runner.execute(c)
    wall_traced = time.perf_counter() - t0

    # Counts must repeat exactly: a sweep reruns its first command on one
    # worker (which must also write the same bytes), the other workloads
    # rerun the whole pass.
    again = tr.Tracer()
    if args.workload == "sweep_small":
        serial = wl.sweep_command(cmds[0].problem, cmds[0].seeds, workers=1)
        with again.installed(genprior):
            runner.execute(serial)
        expected = first_counts
        speedup = runner.execute(serial).wall_s / plain[0].wall_s
    else:
        with again.installed(genprior):
            for c in cmds:
                runner.execute(c)
        expected = main.counts()
        speedup = 0.0
    counts_repeat = again.counts() == expected

    net = cli.build_generator(cli.load_config(None, cmds[0].overrides()))
    layers = layer_microbench(genprior.generator, net, args.seed)
    import_s, scipy_share = import_profile()
    metrics = per_layer_metrics(main, layers, wall_traced / wall_plain - 1.0, speedup,
                                import_s, scipy_share)
    top = sorted(main.edges().items(), key=lambda kv: -kv[1].self_s)[:20]
    detail = {
        "counts_repeat": counts_repeat,
        "pass_wall_s": {"untraced": wall_plain, "traced": wall_traced},
        "top_edges_calls_self_s": {f"{a}->{b}": [e.calls, e.self_s] for (a, b), e in top},
    }
    return metrics, detail, counts_repeat


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "genprior" / "__init__.py").is_file():
        print(f"error: no genprior sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import genprior
    import genprior.cli

    if not Path(genprior.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported genprior from {genprior.__file__}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())

    seeds = wl.instance_seeds(args.workload, args.seed)
    cycles = wl.cycles(args.workload, seeds)
    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    runner = Runner(genprior.cli, reference, scratch)
    try:
        if args.trace:
            metrics, detail, counts_ok = run_traced(args, genprior, runner, seeds, cycles)
        else:
            metrics, detail = run_end_to_end(args, runner, seeds, cycles)
            counts_ok = True
        self_check = runner.self_check()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()

    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "instance_seeds": list(seeds),
        "self_check_problems": self_check,
        "machine": machine_block(),
    })
    print(json.dumps({"detail": detail}))
    result = {
        "correct": runner.failed == 0 and not self_check and counts_ok,
        "attempted": len(runner.records),
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
