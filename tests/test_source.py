"""Checks on the package's source text."""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "toricdual"


def unused_imports(source: str) -> list:
    """Names a module imports but never references and does not export."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {e.value for e in node.value.elts}
    return sorted(
        (line, name) for name, line in imported.items() if name not in used | exported
    )


def test_unused_imports_are_found():
    source = "import os\nfrom math import gcd, lcm\nfrom . import x\n__all__ = ['x']\nprint(gcd)\n"
    assert unused_imports(source) == [(1, "os"), (2, "lcm")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_functions(sources: dict) -> list:
    """``(file, name)`` of the module-level ``_private`` functions in
    ``sources`` (file name to text) that no source names, directly or as an
    attribute."""
    defined, used = [], set()
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                defined.append((path, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(item for item in defined if item[1] not in used)


def test_unreferenced_private_functions_are_found():
    sources = {
        "a.py": (
            "def _called():\n    pass\n"
            "def _dead():\n    pass\n"
            "def _by_attribute():\n    pass\n"
            "def __dunder__():\n    pass\n"
            "def public():\n    def _nested():\n        pass\n    return _called()\n"
        ),
        "b.py": "import a\na._by_attribute()\n",
    }
    assert unreferenced_private_functions(sources) == [("a.py", "_dead")]


def test_no_unreferenced_private_functions():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    sources = {str(p.relative_to(TESTS.parent)): p.read_text(encoding="utf-8") for p in paths}
    assert unreferenced_private_functions(sources) == []
