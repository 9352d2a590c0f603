"""The basis and state writer against a per-entry reference encoder.

``_json.amplitude_lists`` formats each distinct real and imaginary part
of a member once and joins the member's entries in one call.  The
reference below is the encoder it replaced: one ``%`` format per stored
amplitude.  The texts must be equal, signed zeros and the floats where
``repr`` switches notation included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singletlab import PureState, SingletBasis, SystemShape, save_basis, save_state
from singletlab import _json
from singletlab.singlet import _basis_document, measure_phase
from singletlab.states import _state_document

LADDER = [(4, 2), (6, 2), (8, 2), (10, 2), (12, 2), (6, 3), (9, 3), (8, 4)]

EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e-05, 1e16, -1e308]

_ENTRY = '{"index": %s, "re": %r, "im": %r}'


def reference_lists(rows, amplitudes):
    """Each row's entries, one ``%`` format per stored amplitude, joined as list items."""
    table = [str(row) for row in rows.tolist()]
    lists = []
    for vector in amplitudes:
        kept = np.flatnonzero(vector)
        columns = kept.tolist(), vector.real[kept].tolist(), vector.imag[kept].tolist()
        lists.append(", ".join(_ENTRY % (table[i], re, im) for i, re, im in zip(*columns)))
    return lists


def reference_basis_text(basis, seed, phase):
    members = (
        _json.encode(_state_document(basis.shape, iter([text])))
        for text in reference_lists(basis.support, basis.amplitudes)
    )
    return _json.dumps(_basis_document(basis, seed, phase, members))


def reference_state_text(state):
    (text,) = reference_lists(state.digits, state.values[None, :])
    return _json.dumps(_state_document(state.shape, iter([text])))


def written_lists(rows, amplitudes):
    return [", ".join(texts) for texts in _json.amplitude_lists(rows, amplitudes)]


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def assert_same_text(written, reference):
    """Compare file-sized texts; report the first difference, not a diff of megabytes."""
    if written != reference:
        at = next(
            (i for i, (a, b) in enumerate(zip(written, reference)) if a != b),
            min(len(written), len(reference)),
        )
        pytest.fail(
            f"texts differ at offset {at}: {written[at - 40 : at + 40]!r} "
            f"!= {reference[at - 40 : at + 40]!r}"
        )


def _matrix(parts):
    """A complex matrix from nested (re, im) pairs, every bit kept."""
    return np.array(parts, dtype=float).view(complex)[..., 0]


class TestBasisFiles:
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("shape", LADDER, ids=str)
    def test_ladder_file_equals_the_reference(self, tmp_path, basis_cache, shape, seed):
        basis = basis_cache(*shape)
        phase = measure_phase(basis, seed=seed)
        path = str(tmp_path / "basis.json")
        save_basis(basis, path, seed=seed, phase=phase)
        assert_same_text(_read(path), reference_basis_text(basis, seed, phase))

    def test_all_zero_member(self, tmp_path, basis_cache):
        first = basis_cache(4, 2)
        amplitudes = np.vstack([first.amplitudes, np.zeros_like(first.amplitudes[:1])])
        basis = SingletBasis._from_arrays(first.shape, 1e-9, first.support, amplitudes)
        path = str(tmp_path / "basis.json")
        save_basis(basis, path, seed=0, phase="trivial")
        text = _read(path)
        assert text == reference_basis_text(basis, 0, "trivial")
        assert '"amplitudes": []}]' in text

    def test_one_level_shape(self, tmp_path, basis_cache):
        basis = basis_cache(3, 1)
        path = str(tmp_path / "basis.json")
        save_basis(basis, path, seed=0, phase="trivial")
        assert _read(path) == reference_basis_text(basis, 0, "trivial")


class TestStateFiles:
    @pytest.mark.parametrize(
        "value", [complex(re, im) for re in EDGE_FLOATS for im in EDGE_FLOATS]
    )
    def test_single_entry_state(self, tmp_path, value):
        state = PureState(SystemShape(2, 3), {(2, 0): value}, canonicalize=False)
        path = str(tmp_path / "state.json")
        save_state(state, path)
        assert _read(path) == reference_state_text(state)

    def test_signed_zeros_in_both_parts(self, tmp_path):
        values = [complex(0.5, 0.0), complex(0.5, -0.0), complex(-0.0, 0.25), complex(0.0, 0.25)]
        digits = [(0, 1), (1, 0), (1, 1), (0, 0)]
        state = PureState(SystemShape(2, 2), dict(zip(digits, values)), canonicalize=False)
        path = str(tmp_path / "state.json")
        save_state(state, path)
        text = _read(path)
        assert text == reference_state_text(state)
        assert text.count('"im": -0.0}') == 1 and text.count('"re": -0.0,') == 1


class TestAmplitudeLists:
    def test_edge_floats_in_both_parts(self):
        parts = [[(re, im) for re in EDGE_FLOATS for im in EDGE_FLOATS]]
        parts.append([(im, re) for re, im in parts[0]])
        amplitudes = _matrix(parts)
        rows = np.arange(amplitudes.shape[1])[:, None]
        assert written_lists(rows, amplitudes) == reference_lists(rows, amplitudes)

    def test_every_entry_alike_but_for_the_sign_of_zero(self):
        amplitudes = _matrix([[(0.5, 0.0), (0.5, -0.0)] * 3, [(-0.0, 1.0), (0.0, 1.0)] * 3])
        rows = np.arange(6)[:, None]
        assert written_lists(rows, amplitudes) == reference_lists(rows, amplitudes)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_repeated_values_across_and_within_rows(self, data):
        # A small pool of values, always with zeros of both signs, drawn
        # with repetition into every row: repeats within and across members.
        pool = [0.0, -0.0] + data.draw(
            st.lists(
                st.one_of(
                    st.sampled_from(EDGE_FLOATS + [1.0, -0.5]),
                    st.floats(allow_nan=False, allow_infinity=False),
                ),
                max_size=4,
            )
        )
        count = data.draw(st.integers(1, 4))
        size = data.draw(st.integers(1, 8))
        value = st.sampled_from(pool)
        parts = data.draw(
            st.lists(
                st.lists(st.tuples(value, value), min_size=size, max_size=size),
                min_size=count,
                max_size=count,
            )
        )
        amplitudes = _matrix(parts)
        n = data.draw(st.integers(1, 3))
        rows = np.arange(size * n).reshape(size, n)
        assert written_lists(rows, amplitudes) == reference_lists(rows, amplitudes)
