"""The README's library example runs, it shows the whole root surface, and
its command line synopsis lists exactly the options the parser defines; the
package defines nothing that only tests use, and no function takes a
parameter its body never reads."""

import argparse
import ast
import dataclasses
import importlib
import re
import textwrap
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


def record_fields(cls: type) -> set[str]:
    """The fields of a dataclass or NamedTuple; none for any other class."""
    if dataclasses.is_dataclass(cls):
        return {f.name for f in dataclasses.fields(cls)}
    return set(getattr(cls, "_fields", ()))


def definitions(path: Path, package: str = "pufledger"):
    """(qualified name, name) of each module-level function and class, of
    each annotated field of a dataclass or NamedTuple, and of each method or
    property that is neither a dunder nor an override (which callers reach
    through the base class, as numpy does generate_state)."""
    module = importlib.import_module(f"{package}.{path.stem}")
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node.name
        if isinstance(node, ast.FunctionDef):
            continue
        cls = getattr(module, node.name)
        bases = cls.__mro__[1:]
        fields = record_fields(cls)
        for item in node.body:
            if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                    and item.target.id in fields):
                yield f"{node.name}.{item.target.id}", item.target.id
            elif (isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                    and not any(item.name in vars(base) for base in bases)):
                yield f"{node.name}.{item.name}", item.name


def references(path: Path):
    """Every name the file uses. A field is used when it is named anywhere
    but in its own annotation: read, or written by keyword, as metrics.json's
    fields are before run_scenario writes them whole through vars()."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value  # a getattr lookup by name, as in perfbench's span table


def unread(src: list[Path], readers: list[Path], package: str = "pufledger") -> set[str]:
    """What src defines that neither src nor readers name."""
    referenced = {name for path in src + readers for name in references(path)}
    return {qualified for path in src for qualified, name in definitions(path, package)
            if name not in referenced}


def unread_parameters(src: list[Path]) -> set[str]:
    """`function(parameter)` for each parameter of a function or lambda in
    src that its body, nested functions included, never reads."""
    unused = set()
    for path in src:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                arg for arg in (args.vararg, args.kwarg) if arg is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {name.id for statement in body for name in ast.walk(statement)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
            unused.update(f"{getattr(node, 'name', '<lambda>')}({param.arg})"
                          for param in params if param.arg not in read)
    return unused


def test_package_defines_nothing_only_tests_use():
    src = sorted((ROOT / "src" / "pufledger").glob("*.py"))
    bench = [path for path in sorted((ROOT / "perfbench").glob("*.py"))
             if not path.name.startswith("test_")]
    assert unread(src, bench) == set()


def test_the_check_flags_a_field_nothing_reads(tmp_path, monkeypatch):
    package = tmp_path / "planted"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "records.py").write_text(textwrap.dedent("""
        from dataclasses import dataclass
        from typing import NamedTuple


        @dataclass(frozen=True)
        class Record:
            read: int
            planted_unread: int


        class Pair(NamedTuple):
            left: int
            also_unread: int


        class Plain:
            annotated_only: int


        def total(record: Record, pair: Pair, plain: Plain) -> int:
            return record.read + pair.left
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    assert unread([package / "records.py"], [], "planted") == {
        "total", "Record.planted_unread", "Pair.also_unread"}


def test_the_check_flags_a_property_nothing_reads(tmp_path, monkeypatch):
    package = tmp_path / "planted_properties"  # not the cached "planted"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "shapes.py").write_text(textwrap.dedent("""
        class Base:
            @property
            def inherited(self) -> int:
                return 0


        class Square(Base):
            def __init__(self, side: int) -> None:
                self.side = side

            @property
            def area(self) -> int:
                return self.side * self.side

            @property
            def planted_unread(self) -> int:
                return 4 * self.side

            @property
            def inherited(self) -> int:  # an override: reached through Base
                return 1

            @property
            def __dunder__(self) -> int:
                return 2


        def report(square: Square) -> int:
            return square.area
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    assert unread([package / "shapes.py"], [], "planted_properties") == {
        "report", "Base.inherited", "Square.planted_unread"}


def test_package_takes_no_parameter_it_never_reads():
    assert unread_parameters(sorted((ROOT / "src" / "pufledger").glob("*.py"))) == set()


def test_the_check_flags_a_parameter_nothing_reads(tmp_path):
    path = tmp_path / "params.py"
    path.write_text(textwrap.dedent("""
        def scale(value, factor, planted_unused, *rest, **options):
            def inner():
                return factor  # read only inside a nested function
            return value * inner(), options


        class Box:
            def grow(self, by, also_unused):
                self.size += by


        key = lambda item, lambda_unused: item
    """))
    assert unread_parameters([path]) == {
        "scale(planted_unused)", "scale(rest)", "grow(also_unused)", "<lambda>(lambda_unused)"}
