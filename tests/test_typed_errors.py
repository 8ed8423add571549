"""Every `raise` in `src/rewardlab` names a `RewardLabError` subclass, so
callers and tests tell input bugs from numerical trouble by class. The
exceptions are listed in `UNTYPED_ALLOWED`: the entry point's `SystemExit`
and one raise that never leaves its module. Every subclass that
`errors.py` defines is raised somewhere in `src/rewardlab`, so no error
class outlives the code that raised it.
"""

import ast
from pathlib import Path

from rewardlab import errors

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rewardlab"
TYPED = {
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.RewardLabError)
    and value is not errors.RewardLabError
}

# (module, class): raises of another class, each kept for the reason given
UNTYPED_ALLOWED = {
    ("__main__.py", "SystemExit"): "the exit status of the command-line entry point",
    ("config.py", "ValueError"): "a bad boolean in `_parse_value`, which `parse_config_text`"
                                 " turns into BadConfigError with int's and float's",
}


def raised_names(tree) -> list:
    """(line, class name) of each raise; the name is None for a bare
    `raise` or an exception that is not a plain or dotted name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = (exc.id if isinstance(exc, ast.Name)
                    else exc.attr if isinstance(exc, ast.Attribute) else None)
            found.append((node.lineno, name))
    return sorted(found, key=lambda item: item[0])


def raises_by_module() -> dict:
    return {path.name: raised_names(ast.parse(path.read_text()))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_raise_names_a_typed_error():
    untyped = [
        (module, line, name) for module, found in raises_by_module().items()
        for line, name in found
        if name not in TYPED and (module, name) not in UNTYPED_ALLOWED
    ]
    assert untyped == []


def test_every_error_class_is_raised():
    raised = {name for found in raises_by_module().values() for _, name in found}
    assert sorted(TYPED - raised) == []


def test_the_check_sees_each_form():
    tree = ast.parse(
        "raise UnknownTaskError('x')\n"
        "raise errors.ZeroVectorError\n"
        "try:\n    pass\nexcept ValueError:\n    raise\n"
        "raise ValueError('y') from None\n"
    )
    assert raised_names(tree) == [
        (1, "UnknownTaskError"), (2, "ZeroVectorError"), (6, None), (7, "ValueError"),
    ]
