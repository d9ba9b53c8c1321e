"""The README's CLI listing and library example match the code."""

import argparse
import re
from pathlib import Path

from bandstack.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _first_block(section: str, language: str) -> str:
    """The first ```language block after the README heading ``section``."""
    text = README.read_text(encoding="utf-8")
    after = text[text.index(f"\n## {section}\n"):]
    return re.search(rf"```{language}\n(.*?)```", after, re.S).group(1)


def test_the_cli_listing_shows_exactly_the_subcommands():
    listed = {line.split()[1] for line in _first_block("CLI", "sh").splitlines()
              if line.startswith("bandstack ")}
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert listed == set(subparsers.choices)


def test_the_library_example_runs_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    example = _first_block("Library entry points", "python")
    exec(compile(example, "README library example", "exec"), {})
    assert (tmp_path / "out.wav").exists()
