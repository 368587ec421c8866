"""Every imported name is used by the module that imports it, and every
private module-level name of ``src/`` by the module that binds it.

The scan reads each module of ``src/``, ``tests/`` and ``demos/`` with
``ast``: a name bound by ``import`` or ``from ... import`` must appear as a
name somewhere else in the module, or in its ``__all__``. A package's
``__init__.py`` is exempt, because its imports are re-exports. In ``src/``,
a private name (``_helper``, ``_CONST``) that a module binds at its top
level must be read somewhere in that module: no other module should need
it.
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


def unused_private_names(source):
    """(line, name) of each private name (one underscore first, not a
    dunder) that ``source`` binds at its top level by ``def``, ``class`` or
    assignment and never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [(node.lineno, name.id) for target in targets
                      for name in ast.walk(target) if isinstance(name, ast.Name)]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in bound
            if name.startswith("_") and not name.startswith("__") and name not in read]


def modules(tops=SCANNED):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in modules()
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_no_unused_private_names_in_src():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in modules(("src",))
             for line, name in unused_private_names(path.read_text(encoding="utf-8"))]
    assert not found, "private names their module never uses:\n" + "\n".join(found)


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


def test_scan_finds_a_planted_unused_private_name():
    source = ("_USED = 1\n_UNUSED, (_ALSO, public) = 2, (3, 4)\n"
              "_TYPED: int = 5\n__version__ = '1'\n"
              "def _helper():\n    return _USED\n"
              "def _orphan():\n    _local = 1\n"
              "class _Kept:\n    pass\n"
              "KEPT = _Kept\n"
              "def f():\n    return _helper()\n")
    assert unused_private_names(source) == [
        (2, "_UNUSED"), (2, "_ALSO"), (3, "_TYPED"), (7, "_orphan")]
