"""Round-trip tests for JSON artifacts: states, bases, reports."""

import json
import os
import struct

import numpy as np
import pytest

from singletlab import (
    SystemShape,
    basis_from_dict,
    basis_to_dict,
    build_singlet_basis,
    load_basis,
    load_state,
    save_basis,
    save_state,
    state_from_dict,
    state_to_dict,
)
from singletlab import _json

from conftest import BAD_TOLERANCES, DATA_DIR, random_dense_state, with_tolerance


class TestJsonWriter:
    def test_floats_print_with_full_precision(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))
            rendered = _json.dumps({"x": x})
            back = json.loads(rendered)["x"]
            assert struct.pack("<d", back) == struct.pack("<d", x)

    def test_small_integral_floats_round_trip(self):
        for x in [0.0, -0.0, 1.0, -1.0, 0.5, 1e-308, 1.7976931348623157e308]:
            back = json.loads(_json.dumps({"x": x}))["x"]
            assert struct.pack("<d", back) == struct.pack("<d", x)

    def test_rejects_non_finite(self):
        for bad in [float("nan"), float("inf"), float("-inf")]:
            with pytest.raises(ValueError):
                _json.dumps({"x": bad})

    def test_rejects_non_string_keys(self):
        with pytest.raises(TypeError):
            _json.dumps({3: "x"})

    def test_rejects_non_string_keys_nested_in_lists(self):
        with pytest.raises(TypeError):
            _json.dumps({"a": [{"b": {1: 2}}]})

    def test_compact_layout_with_shortest_round_trip_floats(self):
        payload = {"x": [1, 2.0, -0.0, 1e16, None, True, "s"], "y": {}}
        expected = '{"x": [1, 2.0, -0.0, 1e+16, null, true, "s"], "y": {}}\n'
        assert _json.dumps(payload) == expected

    def test_output_is_stable_and_newline_terminated(self):
        payload = {"b": [1, 2], "a": {"nested": True, "other": None}}
        first = _json.dumps(payload)
        second = _json.dumps(payload)
        assert first == second
        assert first.endswith("\n")
        assert json.loads(first) == payload


class TestStateFiles:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        for shape in [SystemShape(2, 2), SystemShape(4, 2), SystemShape(3, 3)]:
            state = random_dense_state(shape, rng)
            path = os.path.join(tmp_path, "state.json")
            save_state(state, path)
            back = load_state(path)
            assert back.shape == state.shape
            assert back == state  # bit-exact amplitudes

    def test_schema_fields(self, bell):
        payload = state_to_dict(bell)
        assert payload["n"] == 2 and payload["d"] == 2
        entries = payload["amplitudes"]
        assert [tuple(e["index"]) for e in entries] == [(0, 1), (1, 0)]
        assert {"index", "re", "im"} <= set(entries[0].keys())

    def test_indices_sorted_lexicographically(self, tmp_path):
        rng = np.random.default_rng(9)
        state = random_dense_state(SystemShape(3, 2), rng)
        path = os.path.join(tmp_path, "state.json")
        save_state(state, path)
        raw = json.loads(open(path).read())
        indices = [tuple(e["index"]) for e in raw["amplitudes"]]
        assert indices == sorted(indices)

    def test_from_dict_does_not_rephase_by_default(self, bell):
        rotated = bell.scaled(np.exp(0.3j))
        back = state_from_dict(state_to_dict(rotated))
        assert back == rotated

    def test_rejects_malformed_payload(self):
        with pytest.raises((KeyError, ValueError, TypeError)):
            state_from_dict({"n": 2, "d": 2})
        with pytest.raises((KeyError, ValueError, TypeError)):
            state_from_dict({"n": 2, "d": 2, "amplitudes": [{"index": [0, 5], "re": 1.0, "im": 0.0}]})

    def test_identical_files_for_identical_states(self, tmp_path, four_qubit):
        path_a = os.path.join(tmp_path, "a.json")
        path_b = os.path.join(tmp_path, "b.json")
        save_state(four_qubit, path_a)
        save_state(four_qubit, path_b)
        assert open(path_a, "rb").read() == open(path_b, "rb").read()


class TestBasisFiles:
    def test_round_trip(self, tmp_path, basis_cache):
        basis = basis_cache(4, 2)
        path = os.path.join(tmp_path, "basis.json")
        save_basis(basis, path)
        back = load_basis(path)
        assert back.shape == basis.shape
        assert back.dimension == basis.dimension
        for original, loaded in zip(basis, back):
            assert original.distance(loaded) < 1e-15

    def test_metadata_keys(self, basis_cache):
        payload = basis_to_dict(basis_cache(6, 2))
        assert payload["n"] == 6
        assert payload["d"] == 2
        assert payload["K"] == 3
        assert payload["dimension"] == 5
        assert payload["permutation_phase"] == "signum"
        assert payload["tolerance"] == pytest.approx(1e-9)
        assert "seed" in payload
        assert len(payload["states"]) == 5

    def test_dict_round_trip_without_files(self, basis_cache):
        basis = basis_cache(3, 3)
        back = basis_from_dict(basis_to_dict(basis))
        assert back.dimension == 1
        assert back.states[0].distance(basis.states[0]) < 1e-15

    @pytest.mark.parametrize("name", ["basis_8_2.json", "basis_6_3.json"])
    def test_pinned_files_survive_rewrite_bit_exactly(self, tmp_path, name):
        pinned = load_basis(os.path.join(DATA_DIR, name))
        path = os.path.join(tmp_path, name)
        save_basis(pinned, path)
        back = load_basis(path)
        assert back.dimension == pinned.dimension
        for original, loaded in zip(pinned, back):
            assert loaded == original

    def test_phase_metadata_of_a_zero_tolerance_basis(self):
        basis = build_singlet_basis(SystemShape(6, 3), tol=0.0)
        assert basis_to_dict(basis)["permutation_phase"] == "trivial"


class TestStrictStateParsing:
    """Index entries must be JSON integers and amplitude parts finite JSON numbers."""

    @staticmethod
    def _document(index=(0, 1), re=1.0, im=0.0):
        return {"n": 2, "d": 2, "amplitudes": [{"index": list(index), "re": re, "im": im}]}

    @pytest.mark.parametrize(
        "index", [(0.9, 1.7), (0.0, 1.0), (True, 0), ("0", 1), (0, None), (0, 2**70)], ids=repr
    )
    def test_rejects_index_entries_that_are_not_integers(self, index):
        with pytest.raises(ValueError, match="malformed state document"):
            state_from_dict(self._document(index=index))

    @pytest.mark.parametrize(
        "part, value",
        [
            ("re", "-0.7"),
            ("im", False),
            ("re", None),
            ("re", float("nan")),
            ("im", float("inf")),
            ("re", -float("inf")),
            ("re", 10**400),
        ],
        ids=["str", "bool", "null", "nan", "inf", "-inf", "10**400"],
    )
    def test_rejects_amplitudes_that_are_not_finite_numbers(self, part, value):
        with pytest.raises(ValueError, match="malformed state document"):
            state_from_dict(self._document(**{part: value}))

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_rejects_non_finite_json_tokens(self, tmp_path, text):
        path = tmp_path / "state.json"
        entry = '{"index": [0, 1], "re": %s, "im": 0}' % text
        path.write_text('{"n": 2, "d": 2, "amplitudes": [%s]}' % entry)
        with pytest.raises(ValueError, match="malformed state document"):
            load_state(str(path))

    def test_integer_parts_load_as_floats_and_signed_zeros_survive(self):
        state = state_from_dict(self._document(re=1, im=0))
        assert state.values.tolist() == [1 + 0j]
        state = state_from_dict(self._document(re=-0.5, im=-0.0))
        assert struct.pack("<dd", state.values[0].real, state.values[0].imag) == struct.pack(
            "<dd", -0.5, -0.0
        )


class TestStrictShapeFields:
    """``n``, ``d`` and ``dimension`` must be JSON integers and ``tolerance`` a JSON number."""

    @pytest.mark.parametrize(
        "field, value",
        [("n", 2.7), ("n", 2.0), ("d", "2"), ("d", True), ("n", None)],
        ids=repr,
    )
    def test_state_shape_must_be_integers(self, field, value):
        document = {"n": 2, "d": 2, "amplitudes": [{"index": [0, 1], "re": 1.0, "im": 0.0}]}
        document[field] = value
        with pytest.raises(ValueError, match=f"malformed state document: '{field}' must be"):
            state_from_dict(document)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 4.0),
            ("d", "2"),
            ("d", False),
            ("dimension", 2.0),
            ("dimension", "2"),
            ("dimension", True),
            ("tolerance", "1e-9"),
            ("tolerance", None),
            ("tolerance", True),
        ],
        ids=repr,
    )
    def test_basis_fields_are_not_coerced(self, basis_cache, field, value):
        document = basis_to_dict(basis_cache(4, 2))
        document[field] = value
        with pytest.raises(ValueError, match=f"malformed basis document: '{field}' must be"):
            basis_from_dict(document)

    def test_integer_tolerance_loads_as_a_float(self, basis_cache):
        document = basis_to_dict(basis_cache(4, 2))
        document["tolerance"] = 0
        basis = basis_from_dict(document)
        assert basis.tolerance == 0.0 and type(basis.tolerance) is float

    @pytest.mark.parametrize("literal", BAD_TOLERANCES)
    def test_tolerance_that_is_not_finite_and_nonnegative_is_rejected(self, tmp_path, literal):
        path = str(tmp_path / "basis.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(with_tolerance(os.path.join(DATA_DIR, "basis_6_3.json"), literal))
        with pytest.raises(ValueError, match="malformed basis document: 'tolerance' must be"):
            load_basis(path)

    @pytest.mark.parametrize("name", ["basis_8_2.json", "basis_6_3.json"])
    def test_pinned_files_still_load(self, name):
        basis = load_basis(os.path.join(DATA_DIR, name))
        assert basis.dimension == _json.load(os.path.join(DATA_DIR, name))["dimension"]
