"""``errors.py`` is the one module of ``src/`` that decides what an integer
or a real argument is: no other module imports ``numbers`` or calls
``isinstance(..., numbers.<class>)``; each calls ``errors.check_integer`` or
``errors.check_positive`` instead.

The scan reads each module with ``ast``. An ``isinstance`` call counts when
its second argument is, or is a tuple holding, an attribute of the name
``numbers``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _numbers_class(node):
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "numbers")


def rule_sites(source):
    """(line, "import" or "isinstance") of each import of ``numbers`` and
    each ``isinstance`` test against one of its classes in ``source``, in
    line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names):
            found.append((node.lineno, "import"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            found.append((node.lineno, "import"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(map(_numbers_class, kinds)):
                found.append((node.lineno, "isinstance"))
    return sorted(found)


def test_only_errors_decides_the_number_rules():
    paths = sorted(SRC.rglob("*.py"))
    assert {"errors.py", "dsp.py", "selection.py", "explain.py"} <= {p.name for p in paths}
    found = [f"{path.relative_to(SRC)}:{line}: {what}"
             for path in paths if path.name != "errors.py"
             for line, what in rule_sites(path.read_text(encoding="utf-8"))]
    assert found == [], "number rules decided outside errors.py:\n" + "\n".join(found)
    errors = next(p for p in paths if p.name == "errors.py")
    assert [what for _, what in rule_sites(errors.read_text(encoding="utf-8"))] == [
        "import", "isinstance", "isinstance"]


def test_scan_finds_planted_sites():
    source = ("import numbers\n"
              "from numbers import Integral\n"
              "import numpy as np\n"
              "def f(x, n):\n"
              "    if isinstance(x, numbers.Integral):\n        return 1\n"
              "    if isinstance(x, (bool, numbers.Real)):\n        return 2\n"
              "    if isinstance(x, int) or isinstance(n, np.integer):\n        return 3\n"
              "    return numbers.Real\n")
    assert rule_sites(source) == [(1, "import"), (2, "import"), (5, "isinstance"),
                                  (7, "isinstance")]
