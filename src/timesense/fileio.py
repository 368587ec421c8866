"""Atomic text-file writes."""

import os


def write_atomic(path, text):
    """Write ``text`` as UTF-8 with "\\n" line ends to ``path.tmp``, then rename
    it over ``path``, so a reader never sees a partly written file."""
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)
