"""The protocol has one owner. consensus decides which deliveries are
judged, every verdict, whom it blames and when a node is demoted; netsim
only moves messages. Checked on the source, so that a protocol rule that
creeps back into netsim fails here rather than in a later digest."""

import ast
from pathlib import Path

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
