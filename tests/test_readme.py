"""The README's library example runs, it shows the whole root surface, and
its command line synopsis lists exactly the options the parser defines; the
package defines nothing that only tests use."""

import argparse
import ast
import importlib
import re
from pathlib import Path

import pufledger
from pufledger.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

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


def definitions(path: Path):
    """(qualified name, name) of each module-level function and class, and of
    each method that is neither a dunder, a property nor an override (which
    callers reach through the base class, as numpy does generate_state)."""
    module = importlib.import_module(f"pufledger.{path.stem}")
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node.name
        if isinstance(node, ast.FunctionDef):
            continue
        bases = getattr(module, node.name).__mro__[1:]
        for item in node.body:
            if (isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                    and not any(isinstance(d, ast.Name) and d.id == "property"
                                for d in item.decorator_list)
                    and not any(item.name in vars(base) for base in bases)):
                yield f"{node.name}.{item.name}", item.name


def references(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value  # a getattr lookup by name, as in perfbench's span table


def test_package_defines_nothing_only_tests_use():
    src = sorted((ROOT / "src" / "pufledger").glob("*.py"))
    bench = [path for path in sorted((ROOT / "perfbench").glob("*.py"))
             if not path.name.startswith("test_")]
    referenced = {name for path in src + bench for name in references(path)}
    unused = {qualified for path in src for qualified, name in definitions(path)
              if name not in referenced}
    assert unused == set()
