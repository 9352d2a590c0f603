"""The JSON artifact format: one writer and one reader.

Every artifact this package writes goes through :func:`dump` and every
file it reads back goes through :func:`load`.  Output is the stdlib
encoder's compact form, with floats written as their shortest
round-trip ``repr``: a pure function of the double that parses back to
the same bits, so identical inputs give byte-identical files.  NaN and
infinities are rejected, and so are non-string object keys, which the
stdlib encoder would otherwise coerce to strings.

Basis and state files hold one dict per amplitude in their dict forms,
so they are written without building those dicts.  A document value may
be :class:`Deferred`: :func:`amplitude_lists` encodes the amplitude list
of each row of an amplitude matrix (a basis, or one state) from the
index rows the states share, and :func:`streamed` writes a list of
documents one member at a time.  :func:`dump` checks and encodes every
other value before it opens the file, and writes the deferred text only
as it reaches it.  The bytes are those :func:`dumps` gives for the dict
forms.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from typing import Any

import numpy as np

__all__ = ["Deferred", "amplitude_lists", "streamed", "dumps", "dump", "load"]

_LEAVES = frozenset({str, int, float, bool, type(None)})

# One amplitude entry, as the stdlib encoder writes {"index": [...], "re": x, "im": y}:
# ``str`` of a list of ints is its JSON, and ``%r`` of a float is ``float.__repr__``,
# the function the encoder itself calls.
_ENTRY = '{"index": %s, "re": %r, "im": %r}'


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


def _encode(obj: Any) -> str:
    _check_keys(obj)
    return json.dumps(obj, allow_nan=False)


class Deferred:
    """A document value whose JSON text is made, in pieces, only when :func:`dump` writes it."""

    __slots__ = ("_pieces",)

    def __init__(self, pieces: Callable[[], Iterable[str]]) -> None:
        self._pieces = pieces

    def __iter__(self) -> Iterator[str]:
        return iter(self._pieces())


def amplitude_lists(rows: np.ndarray, amplitudes: np.ndarray) -> list[Deferred]:
    """The ``amplitudes`` value of each row of an amplitude matrix, encoded when written.

    ``rows`` holds distinct index rows, and state ``k`` stores the index
    ``rows[i]`` with amplitude ``amplitudes[k, i]`` wherever that is
    nonzero.  Each row's text is made once and shared by every state
    that stores it.  A non-finite amplitude raises the stdlib encoder's
    ``ValueError`` here, before any file is opened.
    """
    bad = amplitudes[~np.isfinite(amplitudes)]
    if bad.size:
        # The stdlib encoder raises its own error on the first one.
        json.dumps([float(bad[0].real), float(bad[0].imag)], allow_nan=False)
    table = np.array([str(row) for row in rows.tolist()], dtype=object)
    return [Deferred(partial(_amplitude_list, table, vector)) for vector in amplitudes]


def _amplitude_list(table: np.ndarray, vector: np.ndarray) -> Iterator[str]:
    kept = np.flatnonzero(vector)
    entries = zip(table[kept].tolist(), vector.real[kept].tolist(), vector.imag[kept].tolist())
    yield "[" + ", ".join(map(_ENTRY.__mod__, entries)) + "]"


def _parts(document: dict) -> list:
    """``document``'s JSON text as strings, with its :class:`Deferred` values left in place."""
    parts, separator = ["{"], ""
    for key, value in document.items():
        if isinstance(value, Deferred):
            # '"key": ', cut from the encoding of {key: null}
            parts += [separator + _encode({key: None})[1:-5], value]
        else:
            parts.append(separator + _encode({key: value})[1:-1])
        separator = ", "
    parts.append("}")
    return parts


def _pieces(parts: list) -> Iterator[str]:
    for part in parts:
        if isinstance(part, str):
            yield part
        else:
            yield from part


def streamed(documents: Iterable[dict]) -> Deferred:
    """A list of documents, written one member at a time.

    Each member's values other than :class:`Deferred` ones are checked
    and encoded here.
    """
    parts = ["["]
    for position, document in enumerate(documents):
        if position:
            parts.append(", ")
        parts += _parts(document)
    parts.append("]")
    return Deferred(partial(_pieces, parts))


def dumps(obj: Any) -> str:
    """Serialize ``obj`` to a deterministic, newline-terminated JSON string."""
    return _encode(obj) + "\n"


def dump(document: dict, path: str) -> None:
    """Write ``document`` to ``path``: the text :func:`dumps` gives for its dict form.

    Every value except the :class:`Deferred` ones is checked and encoded
    before the file is opened.
    """
    parts = _parts(document)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(_pieces(parts))
        handle.write("\n")


def load(path: str) -> dict:
    """Parse the JSON object stored at ``path``; any other top level is a ``ValueError``."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError("malformed document: expected a JSON object")
    return document
