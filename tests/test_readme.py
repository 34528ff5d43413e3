"""Every command of the README's "Command line" block runs and exits 0."""

import re
import shlex
from pathlib import Path

from ternary_dynamics.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def command_line_examples():
    """argv lists of the first code block under "## Command line", without the program name."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line)
        if argv:
            assert argv[0] == "ternary-dynamics", line
            commands.append(argv[1:])
    return commands


def test_readme_command_line_examples_exit_0(capsys):
    commands = command_line_examples()
    assert len(commands) >= 7
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out, argv
