"""The README's examples run as written: its library block and its synth and analyze commands."""

import pathlib
import re
import shlex

from daqc import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def test_library_example_runs():
    (block,) = fenced_blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def test_cli_example_synth_and_analyze_exit_zero(tmp_path, monkeypatch, capsys):
    # the CLI example is the shell block that writes the input files
    (block,) = [block for block in fenced_blocks("sh") if "<<EOF" in block]
    files = dict(re.findall(r"^cat > (\S+) <<EOF\n(.*?)^EOF$", block, flags=re.M | re.S))
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
