"""The README's command examples: every line ``menurank <args>  # -> <out>``
is run through ``menurank.cli.main`` from the repository root, and its
stdout must be exactly ``<out>``."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from menurank.cli import main

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE = re.compile(r"^menurank (.*?)\s+# -> (.*)$")
EXAMPLES = [
    match.groups()
    for match in map(EXAMPLE.match, (ROOT / "README.md").read_text(encoding="utf-8").splitlines())
    if match
]


def test_the_readme_has_examples():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("args, expected", EXAMPLES, ids=[args for args, _ in EXAMPLES])
def test_readme_example_prints_its_comment(capsys, monkeypatch, args, expected):
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(args)) == 0
    assert capsys.readouterr().out == expected + "\n"
