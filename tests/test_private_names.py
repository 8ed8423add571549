"""No module of `rewardlab` reaches into another for a `_`-prefixed name:
neither `from .losses import _rows` nor `losses._rows` on an imported
rewardlab module. A helper two modules need is public in one of them
(shared numerics live in `embeddings`).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rewardlab"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def rewardlab_module(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "rewardlab"


def private_uses(tree) -> list:
    """(line, name) of each private name this module takes from another."""
    aliases, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and rewardlab_module(node):
            for alias in node.names:
                if is_private(alias.name):
                    uses.append((node.lineno, alias.name))
                elif alias.name in MODULES and node.module in (None, "rewardlab"):
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("rewardlab.") and alias.asname:
                    aliases.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and is_private(node.attr)):
            uses.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return uses


def test_no_module_imports_a_private_name_of_another():
    found = {
        path.name: private_uses(ast.parse(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_the_check_sees_both_forms():
    tree = ast.parse(
        "from .losses import _rows, MODES\n"
        "from . import losses as L, simworld\n"
        "from rewardlab.embeddings import _hidden\n"
        "x = L._sum_rows, simworld._private, simworld.TASK_NAMES, L.__name__\n"
    )
    assert sorted(name for _, name in private_uses(tree)) == [
        "L._sum_rows", "_hidden", "_rows", "simworld._private",
    ]
