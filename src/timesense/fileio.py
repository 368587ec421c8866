"""Atomic text-file writes and JSON-file reads and writes."""

import json
import os

from .errors import InvalidInput, MissingFile


def write_atomic(path, text):
    """Write ``text`` as UTF-8 with "\\n" line ends to ``path.tmp``, then rename
    it over ``path``, so a reader never sees a partly written file."""
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_json(path, doc):
    """Write ``doc`` atomically as JSON: keys sorted, two-space indent, a
    final newline."""
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_json(path):
    """The JSON document in ``path``: MissingFile when there is no such
    file, InvalidInput when it is not valid JSON or nests too deeply for
    the parser."""
    if not os.path.isfile(path):
        raise MissingFile(f"{path}: no such file")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InvalidInput(f"{path}: not valid JSON: {exc}") from None
        except RecursionError:
            raise InvalidInput(f"{path}: JSON nested too deeply to read") from None
