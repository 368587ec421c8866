"""``train_many`` and ``decision_scores`` are the only places that convert
classifier input; the estimators take the checked float64 arrays as given.

The scan reads each module of ``src/timesense/classifiers/`` with ``ast``
and lists every ``np.asarray`` or ``np.array`` call whose first argument is
a parameter of the function around it, for every function named in
``SCANNED``: the estimators' ``fit_many`` and ``decision_function``, and
``tree.walk``. No estimator is exempt: knn keeps
``.copy()``s of its lane's rows, which convert nothing.
"""

import ast
from pathlib import Path

CLASSIFIERS = Path(__file__).resolve().parent.parent / "src" / "timesense" / "classifiers"
SCANNED = ("fit_many", "decision_function", "walk")
CONVERSIONS = ("asarray", "array")


def _functions(tree):
    """(qualified name, node) of each function of a module and of its
    classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def conversions(source):
    """(qualified function name, parameter) of each conversion of a
    parameter in a function of ``SCANNED`` in ``source``."""
    found = []
    for name, func in _functions(ast.parse(source)):
        if name.rsplit(".", 1)[-1] not in SCANNED:
            continue
        params = {a.arg for a in func.args.args + func.args.kwonlyargs}
        for node in ast.walk(func):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                    and node.func.attr in CONVERSIONS and node.args
                    and isinstance(node.args[0], ast.Name) and node.args[0].id in params):
                found.append((name, node.args[0].id))
    return found


def test_estimators_do_not_convert_their_input():
    paths = sorted(CLASSIFIERS.glob("*.py"))
    assert {"knn.py", "tree.py", "linear.py", "lanes.py"} <= {path.name for path in paths}
    found = {(path.name, name, param)
             for path in paths
             for name, param in conversions(path.read_text(encoding="utf-8"))}
    assert found == set(), "estimator input converted again:\n" + "\n".join(
        ":".join(f) for f in sorted(found))


def test_scan_finds_planted_conversions():
    source = ("import numpy as np\n"
              "def walk(nodes, X):\n"
              "    X = np.asarray(X, dtype=float)\n"
              "    return np.array(nodes)\n"
              "def helper(X):\n"
              "    return np.asarray(X)\n"
              "class Model:\n"
              "    def fit_many(self, X, y):\n"
              "        self.y = np.asarray(y) == 1\n"
              "        self.w = np.asarray(self.y)\n"
              "        return np.array([len(y)])\n"
              "    def decision_function(self, X):\n"
              "        return np.asarray(X, dtype=float) @ self.w\n"
              "    def importance(self, w):\n"
              "        return np.asarray(w)\n")
    assert conversions(source) == [("walk", "X"), ("walk", "nodes"), ("Model.fit_many", "y"),
                                   ("Model.decision_function", "X")]
