"""Checks on the package's source text."""

import ast
import pathlib
import shlex

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "toricdual"


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
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.List)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            # an __all__ that is not a list literal exports nothing here
            exported |= {e.value for e in node.value.elts}
    return sorted(
        (line, name) for name, line in imported.items() if name not in used | exported
    )


def test_unused_imports_are_found():
    source = "import os\nfrom math import gcd, lcm\nfrom . import x\n__all__ = ['x']\nprint(gcd)\n"
    assert unused_imports(source) == [(1, "os"), (2, "lcm")]
    derived = "from . import x\nnames = {'x': 1}\n__all__ = list(names)\n"
    assert unused_imports(derived) == [(1, "x")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def inapplicable_constructions(source: str) -> list:
    """Lines of ``source`` that build an ``InapplicableInput``: a call of the
    class, by name or as an attribute, or a ``raise`` of the bare class."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            target = node.func
        elif isinstance(node, ast.Raise):
            target = node.exc
        else:
            continue
        if getattr(target, "id", getattr(target, "attr", None)) == "InapplicableInput":
            lines.append(node.lineno)
    return sorted(lines)


def test_inapplicable_constructions_are_found():
    source = (
        "from .exceptions import InapplicableInput, pyramidal_input\n"
        "raise InapplicableInput('regular')\n"
        "raise InapplicableInput\n"
        "e = exceptions.InapplicableInput('repeat-free')\n"
        "raise pyramidal_input((), 'x')\n"
        "try:\n    pass\nexcept InapplicableInput:\n    pass\n"
        "isinstance(e, InapplicableInput)\n"
    )
    assert inapplicable_constructions(source) == [2, 3, 4]


def test_inapplicable_input_is_built_only_in_exceptions():
    # each hypothesis is worded once, by a function in exceptions.py
    found = {
        p.name: inapplicable_constructions(p.read_text(encoding="utf-8"))
        for p in sorted(PACKAGE.glob("*.py"))
    }
    assert found.pop("exceptions.py")
    assert {name: lines for name, lines in found.items() if lines} == {}


def fraction_calls(source: str) -> list:
    """Lines of ``source`` that call ``Fraction``, by name or as an
    attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Fraction"
    )


def test_fraction_calls_are_found():
    source = (
        "from fractions import Fraction\nimport fractions\n"
        "x = Fraction(1, 2)\ny = fractions.Fraction(3)\n"
        "isinstance(x, Fraction)\n"
    )
    assert fraction_calls(source) == [3, 4]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_is_fraction_free(path):
    # exact elimination, the simplex, the referees and every witness stay in
    # integers; the Fraction references live in the tests
    assert fraction_calls(path.read_text(encoding="utf-8")) == []


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


def readme_commands(readme: str) -> list:
    """The ``toricdual`` command lines of the README's "Command line" code
    block, as argument lists, with trailing comments dropped."""
    section = readme.split("## Command line", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)
        for line in block.splitlines()
        if line.startswith("toricdual ")
    ]


def test_readme_commands_run_in_the_cli_tour():
    commands = readme_commands((ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(commands) >= 10
    tour = [
        shlex.split(line)[1:]
        for line in (ROOT / "demos" / "cli_tour.sh").read_text(encoding="utf-8").splitlines()
        if line.startswith("run toricdual ")
    ]
    # a tour line may add options (--verify, --format text) after the README's
    missing = [c for c in commands if not any(t[: len(c)] == c for t in tour)]
    assert missing == []
