"""``classifiers/tree.py`` is the one module of ``src/`` that knows the node
layout of a tree stack and sums split gains: no other module names
``NO_CHILD``, the childless-node marker, and no other module under
``src/timesense/classifiers/`` calls ``np.add.at``; each reads
``TreeNodes`` and ``tree.feature_gains`` instead.

The scan reads each module with ``ast``. A ``NO_CHILD`` site is a name, an
attribute or an imported name ``NO_CHILD``; a gain-sum site is a call of
``np.add.at``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TREE = Path("timesense", "classifiers", "tree.py")
CLASSIFIERS = Path("timesense", "classifiers")


def layout_sites(source):
    """(line, "NO_CHILD" or "np.add.at") of each use of ``NO_CHILD`` and
    each ``np.add.at`` call in ``source``, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and node.id == "NO_CHILD"
                or isinstance(node, ast.Attribute) and node.attr == "NO_CHILD"
                or isinstance(node, ast.alias) and node.name == "NO_CHILD"):
            found.append((node.lineno, "NO_CHILD"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "at" and isinstance(node.func.value, ast.Attribute)
              and node.func.value.attr == "add" and isinstance(node.func.value.value, ast.Name)
              and node.func.value.value.id == "np"):
            found.append((node.lineno, "np.add.at"))
    return sorted(found)


def _flagged(path, what):
    """Whether a site of kind ``what`` in ``path`` (relative to ``src/``)
    breaks the rule."""
    if path == TREE:
        return False
    return what == "NO_CHILD" or CLASSIFIERS in path.parents


def test_only_tree_owns_the_node_layout_and_gain_sums():
    paths = sorted(p.relative_to(SRC) for p in SRC.rglob("*.py"))
    assert {TREE, CLASSIFIERS / "ensemble.py", CLASSIFIERS / "base.py"} <= set(paths)
    found = [f"{path}:{line}: {what}" for path in paths
             for line, what in layout_sites((SRC / path).read_text(encoding="utf-8"))
             if _flagged(path, what)]
    assert found == [], "node layout or gain sums outside tree.py:\n" + "\n".join(found)
    # tree.py defines the marker and sums the gains
    tree_sites = {what for _, what in layout_sites((SRC / TREE).read_text(encoding="utf-8"))}
    assert tree_sites == {"NO_CHILD", "np.add.at"}


def test_scan_finds_planted_sites():
    source = ("import numpy as np\n"
              "from .tree import NO_CHILD, TreeNodes\n"
              "from . import tree\n"
              "def f(nodes, gains, t, j, g):\n"
              "    leaf = nodes.feature == tree.NO_CHILD\n"
              "    np.add.at(gains, (t, j), g)\n"
              "    np.add(gains, 1)\n"
              "    np.maximum.at(gains, t, g)\n"
              "    return NO_CHILD\n")
    assert layout_sites(source) == [(2, "NO_CHILD"), (5, "NO_CHILD"), (6, "np.add.at"),
                                    (9, "NO_CHILD")]


def test_rule_covers_every_module_and_the_classifiers():
    assert not _flagged(TREE, "NO_CHILD") and not _flagged(TREE, "np.add.at")
    assert _flagged(CLASSIFIERS / "ensemble.py", "NO_CHILD")
    assert _flagged(CLASSIFIERS / "ensemble.py", "np.add.at")
    assert _flagged(Path("timesense", "explain.py"), "NO_CHILD")
    # np.add.at outside classifiers/ sums something other than tree gains
    assert not _flagged(Path("timesense", "explain.py"), "np.add.at")
