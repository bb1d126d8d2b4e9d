"""numpy is the only runtime dependency: no module under src/ imports anything
else outside the standard library, at any depth, lazy imports included."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "tinytts"}


def test_src_imports_only_the_standard_library_numpy_and_tinytts():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    outside = []
    for path in modules:
        tree = ast.parse(path.read_bytes(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # a relative import stays inside tinytts
            outside += [
                f"{path.relative_to(SRC)}:{node.lineno}: {name}"
                for name in names
                if name.split(".")[0] not in ALLOWED
            ]
    assert not outside, outside


# the import graph's leaves and the tinytts modules each may load with it: the
# CLI imports these two alone at start-up, so they must pull in no pipeline
LEAVES = {"config.py": {"tinytts.errors"}, "errors.py": set()}


def _imports_run_on_load(tree):
    """Import nodes outside function bodies, which run when the module loads."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _tinytts_modules(node) -> list[str]:
    """The tinytts modules an import node of a top-level tinytts module names."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif node.level == 0:
        names = [node.module]
    elif node.module:
        names = [f"tinytts.{node.module}"]
    else:  # `from . import x` names the submodule x
        names = [f"tinytts.{alias.name}" for alias in node.names]
    return [name for name in names if name.split(".")[0] == "tinytts"]


def test_settings_and_errors_load_no_other_tinytts_module():
    beyond = {}
    for name, allowed in LEAVES.items():
        tree = ast.parse((SRC / "tinytts" / name).read_bytes(), filename=name)
        loaded = {m for node in _imports_run_on_load(tree) for m in _tinytts_modules(node)}
        beyond[name] = loaded - allowed
    assert beyond == dict.fromkeys(LEAVES, set())
