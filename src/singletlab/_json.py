"""The JSON artifact format: one writer and one reader.

Every artifact this package writes goes through :func:`dump` and every
file it reads back goes through :func:`load`.  Output is the stdlib
encoder's compact form, with floats written as their shortest
round-trip ``repr``: a pure function of the double that parses back to
the same bits, so identical inputs give byte-identical files.  NaN and
infinities are rejected, and so are non-string object keys, which the
stdlib encoder would otherwise coerce to strings.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["dumps", "dump", "load"]

_LEAVES = frozenset({str, int, float, bool, type(None)})


def _check_keys(obj: Any) -> None:
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return
    # Scalars hold no keys: skipping them by exact type saves a call per list entry.
    for item in obj:
        if type(item) not in _LEAVES:
            _check_keys(item)


def dumps(obj: Any) -> str:
    """Serialize ``obj`` to a deterministic, newline-terminated JSON string."""
    _check_keys(obj)
    return json.dumps(obj, allow_nan=False) + "\n"


def dump(obj: Any, path: str) -> None:
    """Write ``obj`` as JSON to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(obj))


def load(path: str) -> dict:
    """Parse the JSON object stored at ``path``; any other top level is a ``ValueError``."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError("malformed document: expected a JSON object")
    return document
