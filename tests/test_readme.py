"""The README's library example runs, it shows the whole root surface, and
its command line synopsis lists exactly the options the parser defines."""

import argparse
import re
from pathlib import Path

import pufledger
from pufledger.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs_and_root_exports_only_it(tmp_path, monkeypatch):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    monkeypatch.chdir(tmp_path)  # the example writes its artifacts to ./out
    exec(compile(block, str(README), "exec"), {})
    assert (tmp_path / "out" / "metrics.json").exists()
    assert pufledger.__all__ == ["ScenarioConfig", "run_scenario"]


def test_readme_command_line_block_lists_every_option():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n+```sh\n(.*?)```", text, re.S).group(1)
    listed = {}
    for line in block.splitlines():
        command, _, rest = line.removeprefix("pufledger ").partition(" ")
        listed[command] = set(re.findall(r"--[a-z][a-z-]*", rest))
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    defined = {
        command: {option for action in parser._actions for option in action.option_strings
                  if option.startswith("--") and option != "--help"}
        for command, parser in subparsers.choices.items()
    }
    assert listed == defined
