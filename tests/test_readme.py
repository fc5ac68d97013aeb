"""The README's examples run as written: its library block and its synth and analyze commands."""

import shlex

from daqc import cli
from helpers import readme_blocks, readme_cli_example


def test_library_example_runs():
    (block,) = readme_blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def test_cli_example_synth_and_analyze_exit_zero(tmp_path, monkeypatch, capsys):
    block, files = readme_cli_example()
    assert sorted(files) == ["defects.txt", "problem.txt", "source.txt"]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    commands = {
        argv[1]: argv[2:]
        for line in block.replace("\\\n", " ").splitlines()
        if (argv := shlex.split(line, comments=True)) and argv[0] == "daqc"
    }
    monkeypatch.chdir(tmp_path)
    for name in ("synth", "analyze"):  # analyze reads the schedule that synth writes
        assert cli.main([name, *commands[name]]) == 0, capsys.readouterr().err
