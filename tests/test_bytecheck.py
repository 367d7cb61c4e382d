import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bytecheck", ROOT / "tools" / "bytecheck.py")
bytecheck = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bytecheck)


def test_mask_drops_only_the_wall_time_of_a_summary():
    line = b"solver=pgd eta=0.5 wall_time_s=1.25 alpha_fit=0.9\n"
    assert bytecheck._masked("summary.txt", line) == b"solver=pgd eta=0.5 alpha_fit=0.9\n"
    assert bytecheck._masked("trace.csv", line) == line


def test_differences_name_each_file_and_line():
    parent = {"a.csv": b"x\n1\n2\n", "b.csv": b"same\n", "gone.txt": b""}
    change = {"a.csv": b"x\n1\n3\n4\n", "b.csv": b"same\n", "new.txt": b""}
    found = bytecheck.differences(parent, change)
    assert found == ["a.csv:3: b'2' != b'3'", "a.csv:4: b'<none>' != b'4'",
                     "gone.txt: only in PARENT", "new.txt: only in CHANGE"]
    assert bytecheck.differences(parent, dict(parent)) == []


def test_one_command_repeats_its_bytes_on_one_tree(tmp_path):
    argv = bytecheck._command("solve", *bytecheck.SMALL_NET, "outer_steps=2",
                              "inner_steps=5", seed=4)
    runs = []
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        runs.append(bytecheck.run(ROOT, argv, tmp_path / side))
    assert sorted(runs[0]) == ["summary.txt", "trace.csv"]
    assert bytecheck.differences(*runs) == []


def test_layout_mode_runs_one_command_in_each_layout(capsys):
    argv = bytecheck._command("solve", *bytecheck.SMALL_NET, "outer_steps=2",
                              "inner_steps=5", seed=4)
    sides, left_out = bytecheck.layout_sides(ROOT)
    assert len(sides) + len(left_out) == len(bytecheck.LAYOUTS)
    # With a second usable CPU, every layout runs and the first is 2 x 2.
    assert left_out or [lay for _, _, lay in sides] == list(bytecheck.LAYOUTS)
    assert bytecheck.check(sides, {"tiny": argv}) == 0
    out = capsys.readouterr().out
    assert out.startswith("same     tiny\n")
    assert f"1 of 1 commands write identical files in all {len(sides)} layouts" in out


FAKE_CLI = """\
import os, sys
out = sys.argv[sys.argv.index("--out") + 1]
with open(os.path.join(out, "layout.txt"), "w") as f:
    f.write(f"{os.environ['OPENBLAS_NUM_THREADS']} {len(os.sched_getaffinity(0))}")
"""


def test_each_layout_sets_the_childs_threads_and_cpus(tmp_path, capsys):
    # A tree whose command writes the thread count and the usable CPUs it
    # was given: each layout's run sees its own, and the check names every
    # layout whose file differs from the first's.
    package = tmp_path / "tree" / "src" / "genprior"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(FAKE_CLI)
    sides, _ = bytecheck.layout_sides(tmp_path / "tree")
    for i, (_, tree, (threads, cpus)) in enumerate(sides):
        (tmp_path / str(i)).mkdir()
        assert bytecheck.run(tree, ["solve"], tmp_path / str(i), (threads, cpus)) == {
            "layout.txt": f"{threads} {cpus}".encode()}
    assert bytecheck.check(sides, {"fake": ["solve"]}) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "DIFFERS  fake"
    assert [line.split(":")[0].strip() for line in lines[1:-1]] == [
        label for label, _, _ in sides[1:]]
