"""The streamed basis and state writer against the stdlib encoding of the dict forms.

``save_state`` and ``save_basis`` encode amplitude lists straight from the
digit and amplitude arrays and write a basis one member at a time; their
files must equal ``_json.dumps`` of ``state_to_dict`` and
``basis_to_dict`` byte for byte, and a non-finite amplitude must leave no
file behind.
"""

import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singletlab import (
    PureState,
    SingletBasis,
    SystemShape,
    basis_to_dict,
    build_singlet_basis,
    save_basis,
    save_state,
    state_to_dict,
)
from singletlab import _json
from singletlab.cli import main

# Signed zeros, the least subnormal, the two points where repr switches to
# exponent notation, and a magnitude near the largest double.
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e-05, 1e16, -1e308, 0.1, -2.5]

LADDER = [(4, 2), (6, 2), (8, 2), (10, 2), (12, 2), (6, 3), (9, 3), (8, 4)]


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _stdlib_error(value):
    with pytest.raises(ValueError) as info:
        json.dumps(value, allow_nan=False)
    return str(info.value)


floats = st.one_of(
    st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def states(draw):
    d = draw(st.sampled_from([1, 2, 3, 11]))
    n = draw(st.integers(1, 5))
    index = st.tuples(*[st.integers(0, d - 1)] * n)
    amplitudes = draw(st.dictionaries(index, st.builds(complex, floats, floats), max_size=12))
    return PureState(SystemShape(n, d), amplitudes, canonicalize=False)


class TestStateFiles:
    @settings(max_examples=150, deadline=None)
    @given(states())
    def test_file_equals_the_stdlib_encoding_of_the_dict_form(self, state):
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "state.json")
            save_state(state, path)
            assert _read(path) == _json.dumps(state_to_dict(state)).encode()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_non_finite_amplitude_raises_and_writes_nothing(self, tmp_path, bad, part):
        value = complex(bad, 1.0) if part == "re" else complex(1.0, bad)
        state = PureState(SystemShape(2, 2), {(0, 1): 0.5, (1, 0): value}, canonicalize=False)
        path = tmp_path / "state.json"
        with pytest.raises(ValueError) as info:
            save_state(state, str(path))
        assert str(info.value) == _stdlib_error(bad)
        assert not path.exists()


class TestBasisFiles:
    @pytest.mark.parametrize("shape", LADDER + [(2, 1), (3, 3), (5, 2)])
    def test_file_equals_the_stdlib_encoding_of_the_dict_form(self, tmp_path, basis_cache, shape):
        basis = basis_cache(*shape)
        path = str(tmp_path / "basis.json")
        save_basis(basis, path, seed=0)
        assert _read(path) == _json.dumps(basis_to_dict(basis, seed=0)).encode()

    def test_seed_reaches_the_file(self, tmp_path, basis_cache):
        basis = basis_cache(6, 3)
        path = str(tmp_path / "basis.json")
        save_basis(basis, path, seed=3)
        assert _read(path) == _json.dumps(basis_to_dict(basis, seed=3)).encode()

    def test_members_with_different_index_rows(self, tmp_path, basis_cache):
        # The phase is measured on the first member only, so the others
        # need not be singlets; they store few, partly shared rows.
        first = basis_cache(4, 2)[0]
        shape = first.shape
        members = (
            first,
            PureState(shape, {(1, 1, 1, 1): 0.6, (0, 0, 0, 0): -0.8j}),
            PureState(shape, {(0, 1, 1, 0): 1.0, (1, 1, 1, 1): 1e-05, (1, 0, 0, 0): 2.0}),
        )
        basis = SingletBasis(shape=shape, tolerance=1e-9, states=members)
        path = str(tmp_path / "basis.json")
        save_basis(basis, path, seed=1)
        assert _read(path) == _json.dumps(basis_to_dict(basis, seed=1)).encode()

    def test_non_finite_member_raises_and_writes_nothing(self, tmp_path, basis_cache):
        good = basis_cache(4, 2)
        bad = PureState(good.shape, {(0, 0, 1, 1): math.nan}, canonicalize=False)
        basis = SingletBasis(shape=good.shape, tolerance=good.tolerance, states=(*good, bad))
        path = tmp_path / "basis.json"
        with pytest.raises(ValueError) as info:
            save_basis(basis, str(path))
        assert str(info.value) == _stdlib_error(math.nan)
        assert not path.exists()

    def test_subspace_exits_2_on_a_non_finite_member(self, tmp_path, monkeypatch, capsys):
        def corrupted(shape, tol):
            basis = build_singlet_basis(shape, tol)
            last = basis.states[-1]
            broken = PureState(shape, {tuple(last.digits[0].tolist()): math.inf})
            return SingletBasis(shape=shape, tolerance=tol, states=(*basis.states[:-1], broken))

        monkeypatch.setattr("singletlab.cli.build_singlet_basis", corrupted)
        path = tmp_path / "basis.json"
        assert main(["subspace", "--n", "4", "--d", "2", "--out", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: Out of range float")
        assert not path.exists()


documents = st.dictionaries(
    st.text(max_size=4),
    st.recursive(
        st.none() | st.booleans() | st.integers() | floats | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner),
        max_leaves=12,
    ),
    max_size=5,
)


class TestDump:
    @settings(max_examples=150, deadline=None)
    @given(documents)
    def test_any_document_is_written_as_dumps_gives_it(self, document):
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "doc.json")
            _json.dump(document, path)
            assert _read(path) == _json.dumps(document).encode()

    @pytest.mark.parametrize(
        "document, error",
        [({"x": [1.0, math.nan]}, ValueError), ({"x": {"y": {1: 2}}}, TypeError)],
    )
    def test_rejected_document_writes_nothing(self, tmp_path, document, error):
        path = tmp_path / "doc.json"
        with pytest.raises(error):
            _json.dump(document, str(path))
        assert not path.exists()

