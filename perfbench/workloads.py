"""The three benchmark workloads, their commands and their output checks.

Every command is an in-process ``genprior`` CLI invocation
(``genprior.cli.main(argv)``) writing into a fresh output directory.  The
workload seed picks the instance seeds from a fixed pool, and the outputs of
every pool instance were recorded once in ``reference.json``
(``make_reference.py``), so any workload seed can be checked against it.

Why each workload exists is documented in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("solve_mnist", "sweep_small", "diagnose_auto")

SOLVE_PROBLEMS = ("linear", "sinusoid", "sigmoid", "phase", "mismatch")
DIAGNOSE_PROBLEMS = ("linear", "sinusoid", "sigmoid", "mismatch")

# k=8 -> 32 -> 32 -> n=128 with 4 projection restarts per outer step.
SMALL_NET = ("latent_dim=8", "hidden_dims=32,32", "output_dim=128", "restarts=4")
SWEEPS = {
    "linear": ((20, 40, 80, 120, 200), ("pgd", "csgm")),
    "phase": ((40, 80, 160, 320), ("phase_pgd", "dpr")),
}
SWEEP_SEEDS = 4
SWEEP_WORKERS = 2

# Instance seeds with recorded reference outputs; a workload seed draws from
# these.
POOL = {
    "solve_mnist": tuple(range(101, 125)),
    "diagnose_auto": tuple(range(201, 225)),
    "sweep_small": tuple(range(301, 317)),
}
SEEDS_PER_RUN = {"solve_mnist": 2, "diagnose_auto": 2, "sweep_small": SWEEP_SEEDS}

# Tolerance for matching the reference outputs.
RTOL = 1e-6
ATOL = 1e-12

RESULT_COLUMNS = ("m", "seed", "solver", "final_per_pixel_error",
                  "final_objective", "alpha_fit", "total_inner_updates")
TRACE_COLUMNS = ("t", "F", "per_pixel_error", "sign_invariant_error",
                 "proj_residual", "phase_flips")
DIAGNOSE_TEXT_KEYS = ("predicted_gap_factor_source", "eta_in_window",
                      "rho_sq_below_inv_eta", "solver")
# Diagnose values the package documents as possibly non-finite: the rate fit
# is NaN when fewer than 3 records sit above the floor, and the mismatch
# factor is +inf when its denominator is not positive.
DIAGNOSE_NONFINITE_OK = ("fitted_alpha", "predicted_mismatch_factor")
OUTER_STEPS = 15
INNER_STEPS = 200


@dataclass(frozen=True)
class Command:
    kind: str            # "solve", "diagnose" or "sweep"
    problem: str
    seeds: tuple
    workers: int = 1
    m_list: tuple = ()
    solvers: tuple = ()

    @property
    def key(self):
        """Identity for byte comparison; the worker count is deliberately
        left out, because outputs must not depend on it."""
        if self.kind == "sweep":
            return (f"sweep/{self.problem}/m={','.join(map(str, self.m_list))}/"
                    f"seeds={','.join(map(str, self.seeds))}")
        return f"{self.kind}/{self.problem}/{self.seeds[0]}"

    @property
    def cells(self):
        return len(self.m_list) * len(self.seeds) * len(self.solvers) or 1

    def overrides(self):
        if self.kind == "solve":
            return [f"problem={self.problem}"]
        if self.kind == "diagnose":
            return [f"problem={self.problem}", "eta=auto", "num_pairs=2000"]
        return [*SMALL_NET, f"problem={self.problem}",
                f"m_list={','.join(map(str, self.m_list))}",
                f"seeds={','.join(map(str, self.seeds))}",
                f"solvers={','.join(self.solvers)}"]

    def argv(self, out):
        argv = [self.kind]
        for item in self.overrides():
            argv += ["--set", item]
        if self.kind != "sweep":
            argv += ["--seed", str(self.seeds[0])]
        else:
            argv += ["--workers", str(self.workers)]
        return argv + ["--out", str(out)]

    def first_instance(self):
        """(overrides, m, seed) of the first instance the command builds."""
        m = self.m_list[0] if self.m_list else 100
        return self.overrides(), m, self.seeds[0]


def instance_seeds(workload, seed):
    """The run's instance seeds: a seeded draw from the workload's pool."""
    return tuple(sorted(random.Random(f"{workload}:{seed}").sample(
        POOL[workload], SEEDS_PER_RUN[workload])))


def sweep_command(problem, seeds, workers=SWEEP_WORKERS, m_list=None):
    ms, solvers = SWEEPS[problem]
    return Command("sweep", problem, tuple(seeds), workers,
                   tuple(m_list or ms), solvers)


def cycles(workload, seeds):
    """Closed-loop command cycles.  A run repeats whole cycles, so every
    problem appears equally often; consecutive cycles alternate the solve
    and diagnose instance seeds, so each command recurs within a run."""
    if workload == "solve_mnist":
        return [[Command("solve", p, (s,)) for p in SOLVE_PROBLEMS] for s in seeds]
    if workload == "diagnose_auto":
        return [[Command("diagnose", p, (s,)) for p in DIAGNOSE_PROBLEMS]
                for s in seeds]
    return [[sweep_command(p, seeds) for p in SWEEPS]]


def warmup_command(workload, seeds):
    """One untimed command that loads every code path the cycle uses."""
    if workload == "sweep_small":
        return sweep_command("linear", seeds[:1], m_list=(20,))
    return cycles(workload, seeds)[0][0]


# ---------------------------------------------------------------------------
# output parsing


def read_outputs(out):
    return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir()) if p.is_file()}


def _csv_rows(data):
    lines = data.decode().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def parse_summary(data):
    line = data.decode().strip()
    return dict(item.split("=", 1) for item in line.split(" "))


def fingerprint(cmd, files):
    """Hash of the bytes that must repeat between executions of a command:
    everything except wall-clock fields."""
    h = hashlib.sha256()
    for name in sorted(files):
        data = files[name]
        if name == "timings.txt":
            continue
        if name == "summary.txt":
            data = b" ".join(tok for tok in data.split(b" ")
                             if not tok.startswith(b"wall_time_s="))
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def _close(value, ref):
    if isinstance(ref, float) and math.isnan(ref):
        return math.isnan(value)
    return math.isclose(value, ref, rel_tol=RTOL, abs_tol=ATOL)


def reference_entries(cmd, files):
    """(reference key, {field: value}) for every instance the outputs cover."""
    if cmd.kind == "solve":
        s = parse_summary(files["summary.txt"])
        return [(f"{cmd.problem}/{cmd.seeds[0]}",
                 {"final_per_pixel_error": float(s["final_per_pixel_error"]),
                  "final_objective": float(s["final_objective"]),
                  "total_inner_updates": int(s["total_inner_updates"])})]
    if cmd.kind == "diagnose":
        _, rows = _csv_rows(files["diagnostics.csv"])
        vals = {k: float(v) for k, v in rows if k not in DIAGNOSE_TEXT_KEYS}
        return [(f"{cmd.problem}/{cmd.seeds[0]}", vals)]
    _, rows = _csv_rows(files["results.csv"])
    out = []
    for m, seed, solver, err, obj, _, inner in rows:
        if seed == "median":
            continue
        out.append((f"{cmd.problem}/{m}/{seed}/{solver}",
                    {"final_per_pixel_error": float(err), "final_objective": float(obj),
                     "total_inner_updates": int(inner)}))
    return out


def inner_updates(cmd, files):
    """Latent descent steps a command completed, from its own outputs.

    ``diagnose`` does not report them; its single solve uses the projected
    solver at the default 15 outer x 200 inner steps with one restart.
    """
    if cmd.kind == "diagnose":
        return OUTER_STEPS * INNER_STEPS
    return sum(v["total_inner_updates"] for _, v in reference_entries(cmd, files))


# ---------------------------------------------------------------------------
# checks; each returns a list of problems, empty when the output is correct


def _check_finite(where, values, allowed=()):
    bad = []
    for name, tok in values:
        try:
            v = float(tok)
        except ValueError:
            bad.append(f"{where}: {name}={tok!r} is not a number")
            continue
        if not math.isfinite(v) and name not in allowed:
            bad.append(f"{where}: {name} is {tok}")
    return bad


def _check_solve(cmd, files):
    errs = []
    for name in ("trace.csv", "summary.txt", "x_hat.pgm"):
        if name not in files:
            errs.append(f"missing {name}")
    if errs:
        return errs
    header, rows = _csv_rows(files["trace.csv"])
    if tuple(header) != TRACE_COLUMNS or len(rows) != OUTER_STEPS + 1:
        return [f"trace.csv shape {header} x {len(rows)}"]
    for t, row in enumerate(rows):
        # NaN columns the trace documents: no projection at t=0, no phase
        # flips outside phase retrieval.
        allowed = {"proj_residual"} if t == 0 else set()
        if cmd.problem != "phase":
            allowed.add("phase_flips")
        errs += _check_finite(f"trace.csv row {t}", zip(TRACE_COLUMNS, row), allowed)
    s = parse_summary(files["summary.txt"])
    numeric = [(k, v) for k, v in s.items() if k not in ("problem", "solver", "image")]
    errs += _check_finite("summary.txt", numeric, allowed=("alpha_fit",))
    last = rows[-1]
    if (s.get("final_objective") != last[1]
            or s.get("final_per_pixel_error") != last[2]):
        errs.append("summary.txt final values differ from the last trace row")
    pgm = files["x_hat.pgm"].decode().split()
    pix = [int(v) for v in pgm[4:]]
    if pgm[:4] != ["P2", "28", "28", "255"] or len(pix) != 784 or not all(
            0 <= v <= 255 for v in pix):
        errs.append("x_hat.pgm is not a 28x28 P2 image with levels 0..255")
    return errs


def _check_diagnose(cmd, files):
    if "diagnostics.csv" not in files:
        return ["missing diagnostics.csv"]
    header, rows = _csv_rows(files["diagnostics.csv"])
    if header != ["key", "value"]:
        return [f"diagnostics.csv header {header}"]
    numeric = [(k, v) for k, v in rows if k not in DIAGNOSE_TEXT_KEYS]
    return _check_finite("diagnostics.csv", numeric, allowed=DIAGNOSE_NONFINITE_OK)


def _check_sweep(cmd, files):
    if "results.csv" not in files or "timings.txt" not in files:
        return ["missing results.csv or timings.txt"]
    header, rows = _csv_rows(files["results.csv"])
    if tuple(header) != RESULT_COLUMNS:
        return [f"results.csv header {header}"]
    cells = [r for r in rows if r[1] != "median"]
    medians = [r for r in rows if r[1] == "median"]
    expect = [(str(m), str(s), v) for m in cmd.m_list for s in sorted(cmd.seeds)
              for v in cmd.solvers]
    if [tuple(r[:3]) for r in cells] != expect:
        return ["results.csv cells are not in (m, seed, solver) order"]
    errs = []
    for r in cells:
        errs += _check_finite(f"results.csv {r[:3]}", zip(RESULT_COLUMNS[3:], r[3:]),
                              allowed=("alpha_fit",))
    expect_med = []
    for m in cmd.m_list:
        for v in cmd.solvers:
            sel = [r for r in cells if r[0] == str(m) and r[2] == v]
            expect_med.append([str(m), "median", v] + [
                f"{float(np.median([float(r[i]) for r in sel])):.17g}" for i in (3, 4, 5)
            ] + [str(int(np.median([int(r[6]) for r in sel])))])
    if medians != expect_med:
        errs.append("results.csv median rows do not match the cell rows")
    if len(files["timings.txt"].decode().splitlines()) != len(cells) + 1:
        errs.append("timings.txt does not list every cell")
    return errs


_CHECKS = {"solve": _check_solve, "diagnose": _check_diagnose, "sweep": _check_sweep}


def check_format(cmd, files):
    """Problems with one command's outputs: files, layout and finiteness."""
    return _CHECKS[cmd.kind](cmd, files)


def check(cmd, files, reference):
    """Problems with one command's outputs, the reference match included."""
    errs = check_format(cmd, files)
    if errs:
        return errs
    table = reference[cmd.kind]
    for key, vals in reference_entries(cmd, files):
        ref = table.get(key)
        if ref is None:
            errs.append(f"no reference for {key}")
            continue
        for name, value in vals.items():
            if name not in ref or not _close(value, ref[name]):
                errs.append(f"{key}: {name}={value!r}, reference {ref.get(name)!r}")
    return errs


def perturbed(cmd, files):
    """A copy of the outputs with the headline error moved by 1e-3 relative,
    which the checks must reject."""
    files = dict(files)
    if cmd.kind == "solve":
        name = "summary.txt"
        s = parse_summary(files[name])
        old = s["final_per_pixel_error"]
        new = f"{float(old) * (1 + 1e-3):.17g}"
        files[name] = files[name].replace(f"final_per_pixel_error={old}".encode(),
                                          f"final_per_pixel_error={new}".encode())
        return files
    if cmd.kind == "diagnose":
        name, col = "diagnostics.csv", 1
        lines = files[name].decode().splitlines()
        row = next(i for i, ln in enumerate(lines)
                   if ln.startswith("final_per_pixel_error,"))
    else:  # the first sweep cell
        name, col, row = "results.csv", 3, 1
        lines = files[name].decode().splitlines()
    cols = lines[row].split(",")
    cols[col] = f"{float(cols[col]) * (1 + 1e-3):.17g}"
    lines[row] = ",".join(cols)
    files[name] = ("\n".join(lines) + "\n").encode()
    return files
