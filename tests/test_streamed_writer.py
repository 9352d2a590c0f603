"""The writer's one streaming rule, and a basis file written one member at a time.

The last value of a document may be an iterator of JSON texts; it stands
for the list of those texts.  ``dumps`` joins them and ``dump`` writes
them one at a time, so ``save_basis`` holds the text of one member, not
the file.
"""

import json
import math
import os
import tracemalloc

import pytest

from singletlab import _json, save_basis
from singletlab.singlet import measure_phase

TEXTS = ['{"x": 1}', "[2, 3.5]", "null", '"s"']
JOINED = {"a": 1, "b": [True], "items": [{"x": 1}, [2, 3.5], None, "s"]}


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


class TestStreamedLastValue:
    def test_dumps_joins_the_texts_into_a_list(self):
        document = {"a": 1, "b": [True], "items": iter(TEXTS)}
        assert _json.dumps(document) == _json.dumps(JOINED) == json.dumps(JOINED) + "\n"

    def test_dump_writes_the_joined_list(self, tmp_path):
        path = str(tmp_path / "doc.json")
        _json.dump({"a": 1, "b": [True], "items": (text for text in TEXTS)}, path)
        assert _read(path) == _json.dumps(JOINED).encode()

    def test_empty_iterator_is_an_empty_list(self, tmp_path):
        path = str(tmp_path / "doc.json")
        _json.dump({"items": iter([])}, path)
        assert _read(path) == b'{"items": []}\n'
        assert _json.encode({"a": None, "items": iter([])}) == '{"a": null, "items": []}'

    def test_an_iterator_before_the_last_value_is_rejected(self):
        with pytest.raises(TypeError):
            _json.dumps({"items": iter(TEXTS), "a": 1})

    def test_other_values_are_checked_before_the_file_is_opened(self, tmp_path):
        path = tmp_path / "doc.json"
        with pytest.raises(ValueError):
            _json.dump({"x": math.inf, "items": iter(TEXTS)}, str(path))
        with pytest.raises(TypeError):
            _json.dump({"x": {1: 2}, "items": iter(TEXTS)}, str(path))
        assert not path.exists()


class TestBasisFileStreams:
    def test_save_basis_holds_far_less_than_the_file(self, tmp_path, basis_cache):
        # The (12,2) file is about 9.07 MB; one member's text is about 69 kB.
        basis = basis_cache(12, 2)
        phase = measure_phase(basis)
        path = str(tmp_path / "basis.json")
        tracemalloc.start()
        try:
            save_basis(basis, path, phase=phase)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert os.path.getsize(path) > 9_000_000
        assert peak < 2_000_000
