"""``tools/refactor_digest.py`` option handling, on a one-command path."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TINY = [["synth", "--out", "{R}/data", "--recordings", "1", "--duration", "20",
         "--raters", "2", "--feature-dim", "2", "--seed", "3"]]


@pytest.fixture
def run_tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("refactor_digest", REPO / "tools" / "refactor_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "PATHS", {"tiny": TINY})

    def run(*args: str) -> int:
        monkeypatch.setattr(sys, "argv", ["refactor_digest.py", "--src", str(REPO), *args])
        return tool.main()

    return run


def _digest_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith(("files=", "digest="))]


def test_missing_work_dir_is_created_and_kept(run_tool, tmp_path, capsys):
    work = tmp_path / "a" / "b"
    assert run_tool("--work", str(work)) == 0
    kept = sorted(p.relative_to(work).as_posix() for p in work.rglob("*") if p.is_file())
    assert kept and all(name.startswith("tiny/data/") for name in kept)
    assert f"files={len(kept)}" in capsys.readouterr().out.splitlines()


def test_empty_work_dir_gives_the_temp_dir_digest(run_tool, tmp_path, capsys):
    assert run_tool() == 0
    in_temp = _digest_lines(capsys.readouterr().out)
    assert run_tool("--work", str(tmp_path)) == 0
    assert _digest_lines(capsys.readouterr().out) == in_temp
    assert (tmp_path / "tiny" / "data").is_dir()


@pytest.mark.parametrize("occupant", ["file-inside", "is-a-file"])
def test_non_empty_work_refused(run_tool, tmp_path, capsys, occupant):
    work = tmp_path / "work"
    if occupant == "file-inside":
        work.mkdir()
        (work / "old.txt").write_text("keep\n")
    else:
        work.write_text("keep\n")
    with pytest.raises(SystemExit) as exc:
        run_tool("--work", str(work))
    assert exc.value.code == 2
    assert "is not an empty directory" in capsys.readouterr().err
    assert (work / "old.txt").is_file() if occupant == "file-inside" else work.is_file()
    assert not (work / "tiny").exists()


def test_numeric_env_line_comes_first_and_is_stable(run_tool, tmp_path, capsys):
    envs = []
    for _ in range(2):
        assert run_tool() == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("numeric_env numpy=")
        assert all(f" {field}=" in first for field in ("baseline", "dispatch", "openblas", "glibc"))
        envs.append(first)
    assert envs[0] == envs[1]
