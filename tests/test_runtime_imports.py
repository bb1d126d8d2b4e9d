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
