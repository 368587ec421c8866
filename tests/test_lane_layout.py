"""``classifiers/lanes.py`` is the one module that knows the padded lane
layout of ``train_many``: no other module of ``src/timesense/classifiers/``
builds a padding mask from lane row counts (``np.arange(...) < counts...``)
or groups lanes by row count with ``np.bincount``; each reads ``Lanes``'s
``valid`` and ``groups`` instead.

The scan reads each module with ``ast``. A mask site is a comparison with
an ``np.arange`` call on one side and a name or attribute ``counts`` on
another.
"""

import ast
from pathlib import Path

CLASSIFIERS = Path(__file__).resolve().parent.parent / "src" / "timesense" / "classifiers"


def _np_call(node, name):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
            and node.func.attr == name)


def _reads_counts(node):
    return any((isinstance(n, ast.Name) and n.id == "counts")
               or (isinstance(n, ast.Attribute) and n.attr == "counts")
               for n in ast.walk(node))


def layout_sites(source):
    """(line, "mask" or "groups") of each padding mask built from row
    counts and each ``np.bincount`` call in ``source``, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            if any(_np_call(o, "arange") for o in operands) and any(map(_reads_counts, operands)):
                found.append((node.lineno, "mask"))
        elif _np_call(node, "bincount"):
            found.append((node.lineno, "groups"))
    return sorted(found)


def test_only_lanes_derives_the_layout():
    paths = {path.name: path for path in CLASSIFIERS.glob("*.py")}
    assert {"base.py", "ensemble.py", "lanes.py", "linear.py", "svm.py", "tree.py"} <= set(paths)
    found = [f"{name}:{line}: {what}" for name, path in sorted(paths.items()) if name != "lanes.py"
             for line, what in layout_sites(path.read_text(encoding="utf-8"))]
    assert found == [], "lane layout derived outside lanes.py:\n" + "\n".join(found)
    assert [what for _, what in layout_sites(paths["lanes.py"].read_text(encoding="utf-8"))] == [
        "mask", "groups"]


def test_scan_finds_planted_sites():
    source = ("import numpy as np\n"
              "def f(X, counts, lanes, mask):\n"
              "    a = np.arange(X.shape[1]) < counts[:, None]\n"
              "    b = lanes.counts[:, None] > np.arange(5)\n"
              "    c = np.arange(4) < 3\n"
              "    d = np.bincount(counts)\n"
              "    e = np.arange(9) < mask.sum(axis=1)\n"
              "    f = 0 <= np.arange(3) < self.counts[lane, None]\n"
              "    return np.bincount(lanes.counts)\n")
    assert layout_sites(source) == [(3, "mask"), (4, "mask"), (6, "groups"), (8, "mask"),
                                    (9, "groups")]
