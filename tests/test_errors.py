"""Every error class in tinytts.errors is one the package itself uses."""

import ast
import inspect
from pathlib import Path

import tinytts
from tinytts import errors

# the readers in errors that raise a caller-chosen class, and the position of
# their `error` parameter
ERROR_PARAM = {
    name: list(inspect.signature(fn).parameters).index("error")
    for name, fn in vars(errors).items()
    if inspect.isfunction(fn) and "error" in inspect.signature(fn).parameters
}


def _names(node) -> set[str]:
    """The bare names an `except` clause or `raise` statement refers to."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(elt) for elt in node.elts))
    return {node.id} if isinstance(node, ast.Name) else set()


def _used_in_src() -> set[str]:
    """Names that src/ raises, catches, or passes to a reader as its `error`."""
    used = set()
    for path in Path(tinytts.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used |= _names(node.exc)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                used |= _names(node.type)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                pos = ERROR_PARAM.get(node.func.id)
                if pos is None:
                    continue
                args = node.args[pos:pos + 1]
                args += [kw.value for kw in node.keywords if kw.arg == "error"]
                for arg in args:
                    used |= _names(arg)
    return used


def test_every_error_class_is_raised_or_caught_in_src():
    classes = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.TinyTtsError)
    }
    assert ERROR_PARAM == {"read_utf8": 1, "read_fields": 3}
    unused = classes - _used_in_src()
    assert not unused, f"error classes src/ never raises or catches: {sorted(unused)}"
