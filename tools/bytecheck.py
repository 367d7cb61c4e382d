"""Compare the output bytes of two source trees, or of one tree in four
layouts, over one fixed command list.

    python tools/bytecheck.py PARENT CHANGE
    python tools/bytecheck.py --layouts TREE

PARENT, CHANGE and TREE are checkouts of this repository.  Every command
below runs once per tree (or per layout), each in a fresh interpreter
(``python -m genprior.cli`` with ``PYTHONPATH=TREE/src``) and its own
output directory, and every file it writes is compared byte for byte.
Only wall-clock fields are masked: ``timings.txt`` is not compared, and
the ``wall_time_s=`` item of ``summary.txt`` is dropped.  Each file and
line that differs is named.  The exit status is 0 when every file
matches, and 1 when a file differs, is missing on one side, or a command
fails.

``--layouts`` runs every command of one tree at 1 and 2 OpenBLAS threads
(``OPENBLAS_NUM_THREADS``) x 1 and 2 usable CPUs (the child's CPU
affinity), and compares each layout with the 2-thread, 2-CPU run.  With
one usable CPU it runs the layouts it can, compares them with the first
of them, and names the ones it left out.

Both trees run on one machine in one environment, so no digest is
recorded: the bits of a GEMM can differ between BLAS builds and thread
counts, but not between two runs of the same code here.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# k=8 -> 32 -> 32 -> n=128 with 4 projection restarts (the bench's
# sweep_small net).
SMALL_NET = ("latent_dim=8", "hidden_dims=32,32", "output_dim=128", "restarts=4")
# A one-unit relu net: a pair whose latents both leave the unit dead maps to
# one point, so the estimates and the eta=auto probes drop degenerate pairs.
DEAD_RELU = ("latent_dim=1", "hidden_dims=1", "output_dim=16", "m=8", "eta=auto",
             "num_pairs=300")


def _command(kind, *items, seed=None):
    argv = [kind]
    for item in items:
        argv += ["--set", item]
    return argv + ([] if seed is None else ["--seed", str(seed)])


COMMANDS = {
    **{f"solve-{p}-101": _command("solve", f"problem={p}", seed=101)
       for p in ("linear", "sinusoid", "sigmoid", "phase", "mismatch")},
    # The traced baselines: each trace.csv pins the start and every step.
    "solve-csgm-101": _command("solve", "solver=csgm", seed=101),
    "solve-dpr-101": _command("solve", "problem=phase", "solver=dpr", seed=101),
    "sweep-small-linear": _command(
        "sweep", *SMALL_NET, "problem=linear", "solvers=pgd,csgm",
        "m_list=20,40", "seeds=305,306", "csgm_steps=300", "eta=auto"),
    "sweep-small-phase": _command(
        "sweep", *SMALL_NET, "problem=phase", "solvers=phase_pgd,dpr",
        "m_list=40,80", "seeds=301,302", "dpr_steps=300"),
    "sweep-small-mismatch": _command(
        "sweep", *SMALL_NET, "problem=mismatch", "solvers=myopic", "m_list=40,80",
        "seeds=301,302"),
    "diagnose-mismatch-300": _command(
        "diagnose", "problem=mismatch", "eta=auto", "num_pairs=300", seed=201),
    "diagnose-mismatch-random-ortho-300": _command(
        "diagnose", "problem=mismatch", "basis=random_ortho", "eta=auto",
        "num_pairs=300", seed=201),
    **{f"diagnose-{p}-2000": _command(
        "diagnose", f"problem={p}", "eta=auto", "num_pairs=2000", seed=201)
       for p in ("linear", "sinusoid", "sigmoid", "mismatch")},
    **{f"diagnose-small-{p}-{pairs}": _command(
        "diagnose", *SMALL_NET, f"problem={p}", "eta=auto", f"num_pairs={pairs}",
        seed=202)
       for p, pairs in (("sinusoid", 300), ("phase", 1001), ("sigmoid", 2005),
                        ("linear", 530))},
    "diagnose-linear-513": _command(
        "diagnose", "problem=linear", "eta=auto", "num_pairs=513", seed=201),
    "diagnose-dead-relu-300": _command("diagnose", *DEAD_RELU, seed=201),
    "sweep-dead-relu": _command(
        "sweep", *DEAD_RELU, "m_list=4,8", "seeds=1,2,3", "solvers=pgd,csgm",
        "csgm_steps=200"),
    "solve-mismatch-random-ortho": _command(
        "solve", "problem=mismatch", "basis=random_ortho", "outer_steps=3", seed=3),
    "solve-linear-orthonormal": _command(
        "solve", "problem=linear", "matrix_kind=orthonormal", "outer_steps=3",
        seed=7),
    "solve-restarts-unit-norm": _command(
        "solve", "restarts=3", "unit_norm_latent=true", "outer_steps=4", seed=9),
}


def _masked(name, data):
    if name == "summary.txt":
        return b" ".join(t for t in data.split(b" ")
                         if not t.startswith(b"wall_time_s="))
    return data


# (OpenBLAS threads, usable CPUs) of each layout; the first one run is the
# one the others are compared with.
LAYOUTS = ((2, 2), (2, 1), (1, 2), (1, 1))


def layout_name(layout):
    threads, cpus = layout
    return f"{threads} thread{'s' * (threads > 1)}, {cpus} CPU{'s' * (cpus > 1)}"


def run(tree, argv, out, layout=None):
    """The masked output files of one command on one tree, run in the given
    (threads, cpus) layout or this process's, or the failure of the
    command as a string."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    pin = None
    if layout is not None:
        threads, cpus = layout
        env.update(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        chosen = sorted(os.sched_getaffinity(0))[:cpus]

        def pin():
            os.sched_setaffinity(0, chosen)
    proc = subprocess.run([sys.executable, "-m", "genprior.cli", *argv,
                           "--out", str(out)], env=env, capture_output=True,
                          text=True, check=False, preexec_fn=pin)
    if proc.returncode != 0:
        return f"exit status {proc.returncode}: {proc.stderr.strip()[-400:]}"
    return {p.name: _masked(p.name, p.read_bytes())
            for p in sorted(out.iterdir()) if p.is_file() and p.name != "timings.txt"}


def differences(a, b, limit=3, names=("PARENT", "CHANGE")):
    """One line per file that differs between the outputs a and b (named
    ``names`` where a file is only in one), naming the first ``limit``
    lines that differ."""
    found = []
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            found.append(f"{name}: only in {names[1] if name in b else names[0]}")
            continue
        if a[name] == b[name]:
            continue
        la, lb = a[name].splitlines(), b[name].splitlines()
        lines = [i for i in range(max(len(la), len(lb)))
                 if i >= len(la) or i >= len(lb) or la[i] != lb[i]]
        found += [f"{name}:{i + 1}: {la[i] if i < len(la) else b'<none>'!r} "
                  f"!= {lb[i] if i < len(lb) else b'<none>'!r}" for i in lines[:limit]]
        if len(lines) > limit:
            found.append(f"{name}: {len(lines) - limit} more lines differ")
    return found


def check(sides, commands=COMMANDS):
    """Run every command on each (label, tree, layout) side and compare
    each later side's files with the first's, printing one report line per
    command (and each difference under it, prefixed with its layout's
    label); 1 if any command differs or fails, else 0."""
    labelled = sides[0][2] is not None
    bad = files = 0
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
        for name, command in commands.items():
            outs = []
            for i, (_, tree, layout) in enumerate(sides):
                out = Path(tmp) / name / str(i)
                out.mkdir(parents=True)
                outs.append(run(tree, command, out, layout))
            labels = [label for label, _, _ in sides]
            failed = [f"{label} {o}" for label, o in zip(labels, outs)
                      if isinstance(o, str)]
            found = failed or [
                f"{label}: {line}" if labelled else line
                for label, o in zip(labels[1:], outs[1:])
                for line in differences(outs[0], o, names=(labels[0], label))]
            if not failed:
                files += len(outs[0]) * (len(outs) - 1)
            bad += bool(found)
            print(f"{'DIFFERS' if found else 'same':8} {name}")
            for line in found:
                print(f"         {line}")
    where = f" in all {len(sides)} layouts" if labelled else ""
    print(f"{len(commands) - bad} of {len(commands)} commands write identical "
          f"files{where} ({files} files compared; timings.txt and wall_time_s "
          f"masked)")
    return 1 if bad else 0


def layout_sides(tree):
    """The (label, tree, layout) sides of the layouts this process's usable
    CPUs allow, and the names of the ones left out."""
    cpus = len(os.sched_getaffinity(0))
    return ([(layout_name(lay), tree, lay) for lay in LAYOUTS if lay[1] <= cpus],
            [layout_name(lay) for lay in LAYOUTS if lay[1] > cpus])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", type=Path, nargs="+", metavar="TREE",
                        help="PARENT CHANGE, or one TREE with --layouts")
    parser.add_argument("--layouts", action="store_true",
                        help="run one tree at 1 and 2 BLAS threads x 1 and 2 CPUs")
    args = parser.parse_args(argv)
    if len(args.trees) != (1 if args.layouts else 2):
        parser.error("give PARENT CHANGE, or --layouts TREE")
    if not args.layouts:
        return check([("PARENT", args.trees[0], None), ("CHANGE", args.trees[1], None)])
    sides, left_out = layout_sides(args.trees[0])
    if left_out:
        print(f"left out (too few usable CPUs): {'; '.join(left_out)}")
    print(f"compared with: {sides[0][0]}")
    return check(sides)


if __name__ == "__main__":
    raise SystemExit(main())
