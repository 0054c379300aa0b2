"""The README's library quick start and command-line examples, run."""

import doctest
import re
import shlex
from pathlib import Path

from hookpart.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0, f"{result.failed} README examples failed"


def test_readme_command_lines(capsys):
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.splitlines()
    assert lines and all(line.startswith("hookpart ") for line in lines)
    for line in lines:
        assert run(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()
