"""`ExperimentConfig` is the one home of every setting: each of its fields
is read somewhere in `src/rewardlab` outside `config.py` (a field nothing
reads would be a setting that is neither honoured nor rejected), every
numeric field has a lower bound that construction checks, and no other
module defines a `...Config` dataclass that could copy its fields.
"""

import ast
from dataclasses import fields
from pathlib import Path

from rewardlab.config import _AT_LEAST, ExperimentConfig

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rewardlab"


def modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def is_dataclass_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass") or (
        isinstance(target, ast.Attribute) and target.attr == "dataclass")


def test_every_config_field_is_read_outside_config():
    read = {
        node.attr
        for name, tree in modules().items() if name != "config.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [f.name for f in fields(ExperimentConfig) if f.name not in read]
    assert unread == []


def test_no_other_config_dataclass():
    others = [
        f"{name}:{node.name}"
        for name, tree in modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name.endswith("Config")
        and any(is_dataclass_decorator(d) for d in node.decorator_list)
        and (name, node.name) != ("config.py", "ExperimentConfig")
    ]
    assert others == []


def test_every_numeric_field_has_a_lower_bound():
    numeric = [f.name for f in fields(ExperimentConfig) if f.type in (int, float, "int", "float")]
    assert numeric and [name for name in numeric if name not in _AT_LEAST] == []
