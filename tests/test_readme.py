"""The README's examples run as written: every `quantacode ...` line of its
"Command line" block exits 0, in order, its `python` block executes, and
every name it lists as a key entry point ships in the package."""

import re
import shlex
from pathlib import Path

import quantacode
from quantacode.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def block(heading: str, lang: str = "") -> str:
    section = README.read_text().split(heading + "\n", 1)[1]
    return re.search(r"```" + lang + r"\n(.*?)```", section, re.S).group(1)


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # `encode` reads symbol indices of the table written just before it
    (tmp_path / "symbols.bin").write_bytes(bytes([0, 1, 1, 0]) * 250)
    commands = [shlex.split(line, comments=True)
                for line in block("## Command line").splitlines()]
    commands = [argv[1:] for argv in commands if argv[:1] == ["quantacode"]]
    assert len(commands) == 7
    for argv in commands:
        assert main(argv) == 0, argv


def test_python_block_runs():
    scope = {}
    exec(compile(block("## Library", "python"), str(README), "exec"), scope)
    assert (scope["plan"].width_bits, scope["plan"].t) == (5, 21)


def test_key_entry_points_ship():
    # every name the README lists is an attribute of the package, so a name
    # that leaves the package (a test oracle, say) cannot stay listed
    text = README.read_text().split("Key entry points:", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`(\w+)`", text)
    assert len(names) == 18
    assert [n for n in names if not hasattr(quantacode, n)] == []
