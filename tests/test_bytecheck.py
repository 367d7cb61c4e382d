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
