"""Bundled reference states, shipped as JSON next to this module.

* ``bell_singlet``: the two-qubit antisymmetric state, the unique
  two-party invariant state.
* ``qutrit_singlet``: the totally antisymmetric three-qutrit state.
* ``four_qubit_singlet``: the four-qubit invariant state orthogonal to
  the double Bell pair; its two-site marginals are diagonal but not
  maximally mixed, making it the standard not-two-uniform witness.
"""

from __future__ import annotations

import json
import shutil
from importlib import resources

from ..states import PureState, state_from_dict

__all__ = ["available", "load", "export"]

_FILES = {
    "bell_singlet": "bell_singlet.json",
    "qutrit_singlet": "qutrit_singlet.json",
    "four_qubit_singlet": "four_qubit_singlet.json",
}


def available() -> list[str]:
    """Names accepted by :func:`load`."""
    return sorted(_FILES)


def _resource(name: str):
    """The packaged file of fixture ``name``; :class:`KeyError` for an unknown name."""
    try:
        filename = _FILES[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(available())}") from None
    return resources.files(__package__).joinpath(filename)


def load(name: str) -> PureState:
    """Load one bundled state by name."""
    text = _resource(name).read_text(encoding="utf-8")
    return state_from_dict(json.loads(text))


def export(name: str, path: str) -> None:
    """Copy one bundled state's JSON file to ``path``."""
    with resources.as_file(_resource(name)) as source:
        shutil.copyfile(source, path)
