"""Record the reference outputs the benchmark checks every command against.

    python3 perfbench/make_reference.py

Runs every pool instance of every workload once (about five minutes on two
cores) and writes ``perfbench/reference.json``: per command, the
``final_per_pixel_error``, ``final_objective`` and ``total_inner_updates``
of solves and sweep cells, and every numeric value of ``diagnose``.  Run it
only to re-record the reference at a commit whose outputs are meant to
change, and say so where the change is described.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cli, cmd, out):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(cmd.argv(out))
    files = wl.read_outputs(out)
    errs = ([f"exit status {rc}"] if rc else []) + wl.check_format(cmd, files)
    if errs:
        raise SystemExit(f"{cmd.key}: {errs}")
    shutil.rmtree(out)
    return wl.reference_entries(cmd, files)


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from genprior import cli

    out = ROOT / ".perfbench_out" / "reference"
    cmds = [wl.Command("solve", p, (s,)) for p in wl.SOLVE_PROBLEMS
            for s in wl.POOL["solve_mnist"]]
    cmds += [wl.Command("diagnose", p, (s,)) for p in wl.DIAGNOSE_PROBLEMS
             for s in wl.POOL["diagnose_auto"]]
    cmds += [wl.sweep_command(p, wl.POOL["sweep_small"]) for p in wl.SWEEPS]
    table = {"solve": {}, "diagnose": {}, "sweep": {}}
    for i, cmd in enumerate(cmds):
        print(f"[{i + 1}/{len(cmds)}] {cmd.key}", flush=True)
        table[cmd.kind].update(run(cli, cmd, out / str(i)))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    doc = {"commit": commit, "rtol": wl.RTOL, "atol": wl.ATOL, **table}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(out.parent, ignore_errors=True)


if __name__ == "__main__":
    main()
