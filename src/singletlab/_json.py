"""The JSON artifact format: one writer and one reader.

Every artifact this package writes goes through :func:`dump` and every
file it reads back goes through :func:`load`.  Output is the stdlib
encoder's compact form, with floats written as their shortest
round-trip ``repr``: a pure function of the double that parses back to
the same bits, so identical inputs give byte-identical files.  NaN and
infinities are rejected, and so are non-string object keys, which the
stdlib encoder would otherwise coerce to strings.

One rule lets basis and state files be written without building the
dict per amplitude of their dict forms: the *last* value of a document
may be an iterator of texts, each holding comma-separated list items,
and it stands for the list of all those items.  :func:`amplitude_lists`
gives, for each row of an amplitude matrix (a basis, or one state), an
iterator of one text holding all of that row's entries.  A basis's
``"states"`` value is an iterator of member texts, each the
:func:`encode` of one state document.  :func:`dump` checks and encodes
every other value before it opens the file, then writes the texts one
at a time, so a basis is held one member at a time.  The bytes are those
:func:`dumps` gives for the dict forms.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from typing import Any

import numpy as np

__all__ = ["amplitude_lists", "encode", "dumps", "dump", "load"]

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


def _texts(values: np.ndarray, form: str) -> np.ndarray:
    """``form % value`` for each float in ``values``, made once per distinct value.

    Values are told apart by their bits, not by ``==``, so ``0.0`` and
    ``-0.0`` keep their own texts.
    """
    _, first, inverse = np.unique(values.view(np.int64), return_index=True, return_inverse=True)
    return np.array(list(map(form.__mod__, values[first].tolist())), dtype=object)[inverse]


def amplitude_lists(rows: np.ndarray, amplitudes: np.ndarray) -> Iterator[Iterator[str]]:
    """The entries of each row of an amplitude matrix, as one text per row.

    ``rows`` holds distinct index rows, and state ``k`` stores the index
    ``rows[i]`` with amplitude ``amplitudes[k, i]`` wherever that is
    nonzero; the stdlib encoder writes that entry as
    ``{"index": [...], "re": x, "im": y}``.  Each row's text up to ``x``
    is made once and shared by every state that stores it.  A state's
    text is made only when it is reached: each distinct real and
    imaginary part is formatted once (``%r`` of a float is
    ``float.__repr__``, the function the encoder itself calls), and the
    three pieces of every entry are joined in one call.  A non-finite
    amplitude raises the stdlib encoder's ``ValueError`` here, before
    any file is opened.
    """
    bad = amplitudes[~np.isfinite(amplitudes)]
    if bad.size:
        # The stdlib encoder raises its own error on the first one.
        json.dumps([float(bad[0].real), float(bad[0].imag)], allow_nan=False)
    # ``str`` of a list of ints is its JSON.
    heads = np.array([', {"index": %s, "re": ' % row for row in rows.tolist()], dtype=object)

    def entries(vector: np.ndarray) -> Iterator[str]:
        kept = np.flatnonzero(vector)
        pieces = np.empty((kept.size, 3), dtype=object)
        pieces[:, 0] = heads[kept]
        pieces[:, 1] = _texts(vector.real[kept], "%r")
        pieces[:, 2] = _texts(vector.imag[kept], ', "im": %r}')
        # Dropping the first head's ", " leaves the entries joined as a list's items.
        return iter(("".join(pieces.ravel().tolist())[2:],))

    return map(entries, amplitudes)


def _plain(obj: Any) -> str:
    """The stdlib encoder's text of ``obj``, its keys checked first."""
    _check_keys(obj)
    return json.dumps(obj, allow_nan=False)


def _split(document: Any) -> tuple[str, Iterable[str], str]:
    """``document``'s text as a head, the texts of a streamed last value, and a tail."""
    if isinstance(document, dict) and document:
        key = next(reversed(document))
        texts = document[key]
        if isinstance(texts, Iterator):
            # The text of {..., "key": []} without its closing "]}".
            return _plain({**document, key: []})[:-2], texts, "]}"
    return _plain(document), (), ""


def encode(document: Any) -> str:
    """The JSON text of ``document``, with no trailing newline."""
    head, texts, tail = _split(document)
    return head + ", ".join(texts) + tail


def dumps(obj: Any) -> str:
    """Serialize ``obj`` to a deterministic, newline-terminated JSON string."""
    return encode(obj) + "\n"


def dump(document: dict, path: str) -> None:
    """Write ``document`` to ``path``: the text :func:`dumps` gives for it.

    Everything but a streamed last value is checked and encoded before
    the file is opened; that value's texts are written as they are made.
    """
    head, texts, tail = _split(document)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(head)
        for position, text in enumerate(texts):
            handle.write(", " + text if position else text)
        handle.write(tail + "\n")


def load(path: str) -> dict:
    """Parse the JSON object stored at ``path``; any other top level is a ``ValueError``."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError("malformed document: expected a JSON object")
    return document
