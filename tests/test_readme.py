"""README examples run as written: the library quick start, and the command
lines on the two problem files it shows."""

import re
from pathlib import Path

from cxpoisson.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def test_quick_start_runs(capsys):
    (code,) = blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    assert "'regular_sample': True" in capsys.readouterr().out


def test_command_lines_pass_on_the_problem_files(tmp_path, capsys):
    # the first text block is example.prob, the second split.prob
    example, split = blocks("text")
    (tmp_path / "example.prob").write_text(example)
    (tmp_path / "split.prob").write_text(split)
    commands = [
        line.split("#")[0].split()[1:]
        for block in blocks("sh")
        for line in block.splitlines()
        if line.startswith("cxpoisson ")
    ]
    assert len(commands) == 4
    for argv in commands:
        argv = [str(tmp_path / a) if a.endswith(".prob") else a for a in argv]
        assert main(argv) == 0, argv
    capsys.readouterr()
