"""The README's examples run as shown.

Every command of the "Command line" block exits 0, and the "Library quick
start" block gives what its comments state.
"""

import ast
import re
import shlex
from pathlib import Path

from ternary_dynamics import Scenario
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


def test_readme_library_quick_start_gives_what_its_comments_state(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    rho, agree, swept = capsys.readouterr().out.splitlines()
    assert ast.literal_eval(rho) == (1 / 3, 1 / 3, 1 / 3)
    assert namespace["report"].scenario is Scenario.ATTRACTIVE
    assert max(abs(p - 1 / 3) for p in namespace["limit"]) <= 1e-6
    assert agree == "True"
    assert swept == "27 repulsive"
