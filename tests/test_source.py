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


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")) + sorted((ROOT / "demos").glob("*.py")),
    ids=lambda p: p.name,
)
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


def readme_python_example(readme: str) -> str:
    """The ``python`` code block of the README's "Python API" section."""
    section = readme.split("## Python API", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_python_example_runs(capsys):
    example = readme_python_example((ROOT / "README.md").read_text(encoding="utf-8"))
    exec(compile(example, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # the values its comments state exactly (the first line is up to sign)
    assert printed[1:] == ["True gale-line-sums", "True", "False"]


ELIMINATION_LOOPS = ("_bareiss", "_bareiss_packed", "_slot_bytes", "_echelon")


def elimination_names(source: str) -> list:
    """``(line, name)`` wherever ``source`` names one of the elimination
    loops of ``intlinalg``: as a name, an attribute, an imported name or a
    function it defines (text in strings and docstrings does not count)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in ELIMINATION_LOOPS]
    return sorted(found)


def test_elimination_names_are_found():
    source = (
        "from .intlinalg import _bareiss, circuit_form\n"
        '"""_echelon, in a docstring"""\n'
        "pivots, d = _bareiss(rows)\n"
        "intlinalg._slot_bytes(rows)\n"
        "def _echelon(rows):\n    return circuit_form(rows)\n"
    )
    assert elimination_names(source) == [
        (1, "_bareiss"), (3, "_bareiss"), (4, "_slot_bytes"), (5, "_echelon")
    ]


def test_only_intlinalg_names_its_elimination_loops():
    # every other module reads an elimination through circuit_form,
    # integer_kernel or column_lattice
    found = {
        p.name: elimination_names(p.read_text(encoding="utf-8"))
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "intlinalg.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def _is_binop(node, op) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, op)


def bareiss_updates(source: str) -> list:
    """Lines of ``source`` with a row comprehension whose element is the
    fraction-free update ``(A*B - C*D) // E``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.ListComp, ast.GeneratorExp))
        and _is_binop(node.elt, ast.FloorDiv)
        and _is_binop(node.elt.left, ast.Sub)
        and _is_binop(node.elt.left.left, ast.Mult)
        and _is_binop(node.elt.left.right, ast.Mult)
    )


def test_bareiss_updates_are_found():
    source = (
        "rows[i] = [(x * p - f * y) // s for x, y in zip(rows[i], pr)]\n"
        "obj = list((p * x - f * y) // d for x, y in zip(obj, pr))\n"
        "v = [(g * z - x * y) % big for y, z in zip(row, v)]\n"
        "w = [(x - q * y) // s for x, y in zip(row, pr)]\n"
        "packed[i] = (p * x - f * y) // prev\n"
    )
    assert bareiss_updates(source) == [1, 2]


def test_the_bareiss_update_is_written_once():
    # the list loop of _bareiss and the simplex of ratlp both step through
    # intlinalg._pivot, which holds the one per-row-denominator update
    found = {
        p.name: bareiss_updates(p.read_text(encoding="utf-8"))
        for p in sorted(PACKAGE.glob("*.py"))
    }
    assert len(found.pop("intlinalg.py")) == 1
    assert {name: lines for name, lines in found.items() if lines} == {}


def xor_functions(source: str) -> list:
    """Names of the functions of ``source`` whose own body XORs two values
    (``a ^ b`` or ``a ^= b``); a nested function is named for itself."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.BitXor):
                    found.append(owner)
                visit(child, owner)

    visit(ast.parse(source), None)
    return sorted(set(found), key=str)


def test_xor_functions_are_found():
    source = (
        "def f(a, b):\n    return a | b\n"
        "def g(a, b):\n    a ^= b\n    def h():\n        return a ^ 1\n    return h\n"
        "x = 1 ^ 2\n"
    )
    assert xor_functions(source) == [None, "g", "h"]


def test_the_gf2_reduction_is_written_once():
    # the halvings of the strong test and the Lawrence parity test read one
    # GF(2) elimination; the packed Bareiss pass flips its sign offset with
    # an XOR, which is no GF(2) reduction
    found = {
        f"{p.stem}.{name}"
        for p in sorted(PACKAGE.glob("*.py"))
        for name in xor_functions(p.read_text(encoding="utf-8"))
    }
    assert found - {"intlinalg._bareiss_packed"} == {"engine._mod2_dependencies"}
