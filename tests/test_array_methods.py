"""The train step's modules call reductions as array methods: no
`np.sum`, `np.any` or `np.all` in `losses`, `encoders` or `training`.
Each of those wrappers costs more per call than the small reductions of a
train step do, and a step makes dozens of them; `.sum()`, `.any()` and
`.all()` run the same reduction, so the results are the same.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rewardlab"
HOT_PATH = ("losses.py", "encoders.py", "training.py")
WRAPPERS = {"sum", "any", "all"}


def wrapper_calls(tree) -> list:
    """(line, name) of each numpy sum/any/all wrapper the module calls or
    imports by name."""
    aliases, calls = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            calls += [(node.lineno, a.name) for a in node.names if a.name in WRAPPERS]
    for node in ast.walk(tree):
        func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in aliases and func.attr in WRAPPERS):
            calls.append((node.lineno, f"{func.value.id}.{func.attr}"))
    return calls


def test_the_train_step_calls_no_reduction_wrapper():
    found = {name: wrapper_calls(ast.parse((PACKAGE / name).read_text())) for name in HOT_PATH}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_the_check_sees_every_form():
    tree = ast.parse(
        "import numpy as np\n"
        "import numpy\n"
        "from numpy import all as every, maximum\n"
        "x = np.sum(a), numpy.any(b), np.max(c), a.sum(), other.sum(d), np.add.reduce(e)\n"
    )
    assert sorted(name for _, name in wrapper_calls(tree)) == ["all", "np.sum", "numpy.any"]
