"""The protocol has one owner. consensus decides which deliveries are
judged, every verdict, whom it blames and when a node is demoted; netsim
only moves messages. Checked on the source, so that a protocol rule that
creeps back into netsim fails here rather than in a later digest. The read
rule has one owner too: puf.uncertain_races alone decides which races a
noisy read draws for. The registry has one reader: consensus, for the
trusted node. Each named substream of the seed has one owner."""

import ast
from pathlib import Path

from pufledger import harness, netsim

SRC = Path(__file__).resolve().parent.parent / "src" / "pufledger"
PROTOCOL_FIELDS = ("role", "trust_value", "penalties")  # a node's standing, consensus's to write


def protocol_uses(path: Path) -> set[str]:
    """Each protocol field the module writes (by assignment, augmented
    assignment, `replace(x, field=...)` or a setattr by name), each read of
    a `.validated_by` attribute, and each use of the name REASON_NO_MATCH.
    A `validated_by=` keyword builds a block and reads nothing."""
    uses = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            if node.attr in PROTOCOL_FIELDS and not isinstance(node.ctx, ast.Load):
                uses.add(f"writes {node.attr}")
            elif node.attr == "validated_by":
                uses.add("reads validated_by")
        elif isinstance(node, ast.Call):
            callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(
                node.func, "id", None)
            if callee == "replace":
                uses.update(f"writes {kw.arg}" for kw in node.keywords if kw.arg in PROTOCOL_FIELDS)
            elif callee in ("setattr", "__setattr__"):
                uses.update(f"writes {arg.value}" for arg in node.args
                            if isinstance(arg, ast.Constant) and arg.value in PROTOCOL_FIELDS)
        elif "REASON_NO_MATCH" in (getattr(node, "id", None), getattr(node, "name", None)):
            uses.add("names REASON_NO_MATCH")
    return uses


def test_netsim_moves_messages_and_decides_no_verdict():
    assert protocol_uses(SRC / "netsim.py") == set()


def test_consensus_alone_writes_a_nodes_standing():
    writes = {path.stem: {use for use in protocol_uses(path) if use.startswith("writes")}
              for path in sorted(SRC.glob("*.py"))}
    assert writes.pop("consensus") == {f"writes {name}" for name in PROTOCOL_FIELDS}
    assert {module: found for module, found in writes.items() if found} == {}


def test_the_check_sees_each_kind_of_use(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "from .consensus import REASON_NO_MATCH\n"
        "def f(node, block):\n"
        "    node.trust_value -= 1\n"
        "    setattr(node, 'role', 'client')\n"
        "    other = replace(node, penalties=0)\n"
        "    fabricated = WireBlock(validated_by=1)\n"
        "    return block.validated_by\n",
        encoding="utf-8")
    assert protocol_uses(planted) == {
        "names REASON_NO_MATCH", "writes trust_value", "writes role", "writes penalties",
        "reads validated_by"}


def registry_uses(path: Path) -> tuple[set[str], bool]:
    """The names the module imports from registry, and whether it names
    lookup at all (by name, attribute or import)."""
    imported, names_lookup = set(), False
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "registry":
            imported.update(alias.name for alias in node.names)
        names_lookup |= "lookup" in (getattr(node, "id", None), getattr(node, "attr", None),
                                     getattr(node, "name", None))
    return imported, names_lookup


def test_the_registry_has_one_reader():
    """Only the trusted node reads stored responses, and only through
    consensus: netsim imports nothing from registry but the Registry type,
    and no module but consensus names lookup."""
    uses = {path.stem: registry_uses(path) for path in sorted(SRC.glob("*.py"))}
    assert uses["netsim"] == ({"Registry"}, False)
    assert {module for module, (_, names_lookup) in uses.items() if names_lookup} == {
        "consensus", "registry"}  # registry defines it


def test_the_registry_check_sees_each_kind_of_use(tmp_path):
    for text in ("from .registry import Registry, lookup\n",
                 "from . import registry\nregistry.lookup(r, 1, 2)\n",
                 "def f(read=lookup):\n    return read\n"):
        planted = tmp_path / "planted.py"
        planted.write_text(text, encoding="utf-8")
        assert registry_uses(planted)[1], text
    planted.write_text("from .registry import Registry\n", encoding="utf-8")
    assert registry_uses(planted) == ({"Registry"}, False)


def read_rule_uses(path: Path) -> set[str]:
    """The qualified names of the functions in a module that name
    CERTAIN_SD (by name, attribute or import) or read a .noise_sigma_mhz
    attribute; a use outside any function is the module's own. Defining
    CERTAIN_SD, or passing a noise_sigma_mhz= keyword, is no use."""
    uses = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Attribute):
                used = child.attr == "CERTAIN_SD" or (
                    child.attr == "noise_sigma_mhz" and isinstance(child.ctx, ast.Load))
            elif isinstance(child, ast.Name):
                used = child.id == "CERTAIN_SD" and isinstance(child.ctx, ast.Load)
            else:
                used = isinstance(child, ast.alias) and child.name == "CERTAIN_SD"
            if used:
                uses.add(scope)
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return uses


def test_uncertain_races_alone_holds_the_read_rule():
    uses = set().union(*(read_rule_uses(path) for path in sorted(SRC.glob("*.py"))))
    # the device's own validation and manufacture carry sigma; only the rule reads it
    assert uses == {"puf.PufConfig.__post_init__", "puf.PufDevice.__post_init__",
                    "puf.manufacture", "puf.uncertain_races"}


def test_the_read_rule_check_sees_each_kind_of_use(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "from .puf import CERTAIN_SD\n"
        "LIMIT = 8.0\n"
        "def noiseless(device):\n"
        "    return device.noise_sigma_mhz == 0\n"
        "class Reader:\n"
        "    def certain(self, threshold):\n"
        "        return abs(threshold) >= puf.CERTAIN_SD\n"
        "def built():\n"
        "    CERTAIN_SD = 8.0\n"
        "    return PufDevice(1, None, None, noise_sigma_mhz=0.1)\n",
        encoding="utf-8")
    assert read_rule_uses(planted) == {"planted", "planted.noiseless", "planted.Reader.certain"}


def test_seed_substreams_are_distinct_within_and_across_modules():
    """harness and netsim both draw default_rng([seed, k]) from the scenario
    seed: a k named twice would feed two draws the same numbers."""
    streams = {f"{module.__name__}.{name}": value for module in (harness, netsim)
               for name, value in vars(module).items() if name.startswith("_STREAM_")}
    assert {name.rpartition(".")[0] for name in streams} == {"pufledger.harness",
                                                             "pufledger.netsim"}
    assert len(set(streams.values())) == len(streams), streams
