"""Every public top-level function and class of `rewardlab` is reached by the
program: referenced outside its own definition in `src/rewardlab` or in the
benchmark (`perfbench/*.py`), not only by tests. The benchmark names the
functions it traces as strings (`perfbench/layers.py` TARGETS), so a string
constant there counts as a reference too. In the same way, every defaulted
parameter of a public top-level function is passed by some call there.
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


# (function, parameter): defaulted parameters that no call in the program
# passes, each kept for the reason given
UNPASSED_ALLOWED = {
    ("main", "argv"): "the command-line entry point, which tests drive with an argument list",
    ("evaluate_planning", "reward_kind"): "oracle-reward planning rates (ROADMAP items 4 and 6)",
}


def callee(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def passed_arguments(trees) -> dict:
    """callee name -> (most positional arguments of one call, keyword names)
    over every call in the trees; the benchmark's `out.call(part, fn, *args,
    **kwargs)` counts as a call of fn with args and kwargs."""
    passed = {}
    for call in (node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)):
        name, args = callee(call.func), call.args
        if name == "call" and len(args) >= 2 and callee(args[1]):
            name, args = callee(args[1]), args[2:]
        most, keywords = passed.get(name, (0, set()))
        passed[name] = (max(most, len(args)), keywords | {k.arg for k in call.keywords})
    return passed


def defaulted_parameters(func: ast.FunctionDef):
    """(name, positional index or None) of each parameter with a default."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    yield from ((arg.arg, i) for i, arg in enumerate(positional) if i >= first)
    yield from ((arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None)


def test_every_defaulted_parameter_is_passed():
    """A defaulted parameter of a public top-level function is a setting:
    some call in `src/rewardlab` or the benchmark must pass it, by position
    or by name, or UNPASSED_ALLOWED must say why it stays."""
    package = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    bench = [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    passed = passed_arguments(package + bench)
    unpassed = []
    for tree in package:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                most, keywords = passed.get(node.name, (0, set()))
                unpassed += [(node.name, name) for name, index in defaulted_parameters(node)
                             if name not in keywords and (index is None or index >= most)]
    assert sorted(unpassed) == sorted(UNPASSED_ALLOWED)
