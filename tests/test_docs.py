"""The README's example commands parse with the real argument parser, so a
deleted or renamed option cannot linger in the docs."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from affectfuse.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list:
    """(line, argv) of each ``affectfuse ...`` command in the README's ``sh`` blocks, ``\\`` lines joined.

    A line that starts otherwise, such as the elided ``OPENBLAS_NUM_THREADS=1 affectfuse train ...``,
    is not a full command and is skipped.
    """
    text, found = README.read_text(), []
    for block in re.finditer(r"^```sh\n(.*?)^```", text, re.M | re.S):
        first_line = text[: block.start(1)].count("\n") + 1
        command, start = "", None
        for offset, line in enumerate(block.group(1).splitlines()):
            if start is None:
                start = first_line + offset
            command += line.rstrip("\\").strip() + " "
            if line.endswith("\\"):
                continue
            argv = shlex.split(command)
            if argv and argv[0] == "affectfuse":
                found.append(pytest.param(argv[1:], id=f"README.md:{start}"))
            command, start = "", None
    return found


def test_readme_has_commands():
    assert len(_readme_commands()) >= 8


@pytest.mark.parametrize("argv", _readme_commands())
def test_readme_command_parses(argv, capsys):
    parser, _ = build_parser()
    try:
        parser.parse_args(argv)
    except SystemExit:
        pytest.fail(f"affectfuse {' '.join(argv)}: {capsys.readouterr().err.strip()}")
