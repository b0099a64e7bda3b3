"""scripts/check_outputs.py: its byte-identity comparison, on two
temporary output trees (no git, no subprocess), and its report of a
failing command and of its wall time."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "check_outputs.py"


def _script():
    spec = importlib.util.spec_from_file_location("check_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compare():
    return _script().compare


def _tree(root: Path, files: dict) -> Path:
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    root.mkdir(exist_ok=True)
    return root


def test_compare_prints_a_line_per_file_and_passes_only_when_all_are_identical(tmp_path, capsys):
    compare = _compare()
    same = {"a.csv": b"x\r\n0.1\r\n", "run/summary.json": b"{}\n"}
    before = _tree(tmp_path / "before", same)
    after = _tree(tmp_path / "after", same)
    assert compare(before, after) is True
    assert capsys.readouterr().out.splitlines() == [
        "identical a.csv",
        "identical run/summary.json",
    ]

    _tree(after, {"a.csv": b"x\r\n0.2\r\n", "new.txt": b""})
    _tree(before, {"old.txt": b""})
    assert compare(before, after) is False
    assert capsys.readouterr().out.splitlines() == [
        "changed   a.csv",
        "missing   new.txt",
        "missing   old.txt",
        "identical run/summary.json",
    ]


def test_compare_of_two_empty_trees_fails(tmp_path, capsys):
    before = _tree(tmp_path / "before", {})
    after = _tree(tmp_path / "after", {})
    assert _compare()(before, after) is False
    assert capsys.readouterr().out == ""


def test_a_failing_command_prints_a_failed_line_naming_it(tmp_path, capsys):
    # a study config that does not exist: roblp exits non-zero and writes nothing
    script = _script()
    args = ["rates", "--config", tmp_path / "missing.json", "--output-dir", "out"]
    assert script._roblp(ROOT, tmp_path, args, workers=2) is False
    out, err = capsys.readouterr()
    command = f"{ROOT}: roblp {' '.join(map(str, args))} (ROBLP_WORKERS=2)"
    assert out.splitlines() == [f"failed    {command}"]
    assert "missing.json" in err
    # its wall time goes to standard error, never to the compared lines
    assert re.fullmatch(r" *\d+\.\d\d s  " + re.escape(command), err.splitlines()[0])
    assert not (tmp_path / "out").exists()
