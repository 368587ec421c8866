"""``src/`` raises library errors, not bare ``ValueError`` or ``TypeError``.

The scan reads each module of ``src/`` with ``ast`` and lists every
``raise`` of the builtin ``ValueError`` or ``TypeError``, called or not.
``model.py``'s dataclasses document ``ValueError`` for a bad field; they
raise ``InvalidInput``, which is one.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BARE = ("ValueError", "TypeError")


def bare_raises(source):
    """(line, name) of each ``raise`` in ``source`` of a name in ``BARE``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BARE:
                found.append((node.lineno, exc.id))
    return found


def test_src_raises_no_bare_value_or_type_errors():
    paths = sorted(SRC.rglob("*.py"))
    assert {"base.py", "model.py"} <= {path.name for path in paths}
    found = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path in paths
             for line, name in bare_raises(path.read_text(encoding="utf-8"))]
    assert not found, "bare builtin errors raised:\n" + "\n".join(found)


def test_scan_finds_planted_bare_raises():
    source = ("from .errors import InvalidInput\n"
              "def f(x):\n"
              "    if x < 0:\n        raise ValueError('negative')\n"
              "    if x == 0:\n        raise TypeError\n"
              "    try:\n        return 1 / x\n"
              "    except ZeroDivisionError as exc:\n        raise InvalidInput('x') from exc\n"
              "    except KeyError:\n        raise\n"
              "def g():\n    raise np.linalg.LinAlgError('singular')\n")
    assert bare_raises(source) == [(4, "ValueError"), (6, "TypeError")]
