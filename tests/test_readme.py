"""The README's examples run as written: the quick start's public names stay, and the shown bounds are current."""

import pathlib
import re

import pytest

from gft.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "pass"


def test_readme_bounds_example_matches_the_cli(capsys):
    """The header and rows shown under `gft bounds --sigma 1,2 ...` match the command's first lines."""
    text = README.read_text(encoding="utf-8")
    command = "gft bounds --sigma 1,2 --n 1,2 --beta 0,0.5 --radii 0.5,0.9"
    shown = re.search(r"\$ " + re.escape(command) + r"\n(.*?)\n\.\.\.\n", text, flags=re.S).group(1).splitlines()
    assert len(shown) == 5
    assert main(command.split()[1:]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert shown[0] == printed[0]
    for want, got in zip(shown[1:], printed[1:]):
        want, got = want.split(","), got.split(",")
        assert want[:4] == got[:4]  # sigma, n, beta, r
        assert [float(v) for v in want[4:]] == pytest.approx([float(v) for v in got[4:]], rel=1e-13, abs=0.0)
