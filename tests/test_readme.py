"""The README's examples, run as written.

The Python quick start runs as one script. Each ``$ omsteady ...`` line
of a shell example runs through ``cli.main`` in a temporary directory,
after the ``$ cat opt.ini`` example has written that file there, and
every output line the README shows must appear, in order, in what the
command prints. A shown line that ends in ``...`` is compared up to that
mark, and a bare ``...`` line stands for any lines.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from omsteady.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)


def _shell_examples() -> list[tuple[str, list[str]]]:
    """Each '$ ' command of the shell blocks with the lines shown after it."""
    examples: list = []
    for lang, body in BLOCKS:
        shown = None
        for line in body.splitlines() if lang == "" else ():
            if line.startswith("$ "):
                shown = []
                examples.append((line[2:], shown))
            elif shown is not None and line:
                shown.append(line)
    return examples


SHELL_EXAMPLES = _shell_examples()
COMMANDS = [(cmd, shown) for cmd, shown in SHELL_EXAMPLES if cmd.startswith("omsteady ")]


def test_python_quick_start_prints_the_shown_numbers():
    scripts = [body for lang, body in BLOCKS if lang == "python"]
    assert len(scripts) == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec("\n".join(scripts), {})  # the second block reuses the first one's p
    assert out.getvalue() == "0.18700547324622552 0.7277962395807551\n"


def test_every_shell_example_is_collected():
    assert [cmd.split()[:2] for cmd, _ in COMMANDS] == [
        ["omsteady", "point"], ["omsteady", "sweep"], ["omsteady", "figure"],
        ["omsteady", "optimize"], ["omsteady", "validate"]]
    assert all(shown for _, shown in COMMANDS)


@pytest.mark.parametrize("command, shown", COMMANDS, ids=[c.split()[1] for c, _ in COMMANDS])
def test_shell_example_prints_the_shown_lines(command, shown, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (ini,) = [lines for cmd, lines in SHELL_EXAMPLES if cmd == "cat opt.ini"]
    (tmp_path / "opt.ini").write_text("\n".join(ini) + "\n", encoding="utf-8")
    assert main(shlex.split(command)[1:]) == 0
    printed = iter(capsys.readouterr().out.splitlines())
    for line in shown:
        if line == "...":
            continue
        prefix = line[:-3] if line.endswith("...") else None
        assert any(out == line if prefix is None else out.startswith(prefix)
                   for out in printed), f"{command!r} did not print {line!r}"
