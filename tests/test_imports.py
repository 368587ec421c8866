"""Every imported name is used by the module that imports it.

The scan reads each module of ``src/``, ``tests/`` and ``demos/`` with
``ast``: a name bound by ``import`` or ``from ... import`` must appear as a
name somewhere else in the module, or in its ``__all__``. A package's
``__init__.py`` is exempt, because its imports are re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos")


def unused_imports(source):
    """(line, name) of each imported name that ``source`` never uses."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name)
                         for alias in node.names if alias.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in getattr(node.value, "elts", ())
                     if isinstance(elt, ast.Constant)}
    return [(line, name) for line, name in imported if name not in used]


def modules():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in modules()
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_every_scanned_directory_has_modules():
    for top in SCANNED:
        assert any(path.is_relative_to(ROOT / top) for path in modules()), top


def test_scan_finds_a_planted_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path as osp\nimport numpy.linalg\n"
              "from json import dumps, loads as parse\n"
              "__all__ = ['dumps']\n"
              "def f(x):\n    return numpy.linalg.norm(parse(x))\n")
    assert unused_imports(source) == [(2, "os"), (3, "osp")]
