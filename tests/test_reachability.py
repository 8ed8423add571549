"""Every public top-level function and class of `rewardlab` is reached by the
program: referenced outside its own definition in `src/rewardlab` or in the
benchmark (`perfbench/*.py`), not only by tests. The benchmark names the
functions it traces as strings (`perfbench/layers.py` TARGETS), so a string
constant there counts as a reference too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rewardlab"


def referenced_names(node, strings=False) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def test_every_public_definition_is_reached():
    public, reached = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            is_def = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if is_def and not node.name.startswith("_"):
                public[node.name] = path.name
                # a definition's own body does not count as a reference to it
                reached |= referenced_names(node) - {node.name}
            else:
                reached |= referenced_names(node)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        reached |= referenced_names(ast.parse(path.read_text()), strings=True)
    unreached = sorted(f"{module}:{name}" for name, module in public.items() if name not in reached)
    assert unreached == []
