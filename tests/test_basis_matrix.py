"""A singlet basis held as one support and one amplitude matrix.

Members are views of the matrix rows, and ``gram``, ``combine``, the
pair-deficit objective and the writer read the two arrays.  A basis file
whose members store different rows, as a site-permuted file does, must
read the same through them as through its members aligned one by one
with ``joint_amplitudes``.
"""

import dataclasses
import json
from itertools import combinations

import numpy as np
import pytest

from singletlab import (
    PureState,
    SingletBasis,
    SystemShape,
    basis_to_dict,
    build_singlet_basis,
    joint_amplitudes,
    load_basis,
    permute_particles,
    save_basis,
    state_from_dict,
    superpose,
)
from singletlab import _json
from singletlab.optimize import PairDeficitObjective

LADDER = [(4, 2), (6, 2), (8, 2), (10, 2), (12, 2), (6, 3), (9, 3), (8, 4)]


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture(scope="module", params=[(8, 2), (6, 3), (8, 4)], ids=str)
def permuted(request, tmp_path_factory):
    """A basis file with the sites of every member in a seeded random order.

    Written with the stdlib encoder, so each member's amplitude list keeps
    the permuted rows in the order of the original rows.
    """
    n, d = request.param
    path = str(tmp_path_factory.mktemp("permuted") / f"basis_{n}_{d}.json")
    save_basis(build_singlet_basis(SystemShape(n, d)), path)
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    order = np.random.default_rng(n * d).permutation(n).tolist()
    for state in document["states"]:
        for entry in state["amplitudes"]:
            entry["index"] = [entry["index"][site] for site in order]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return path, document


class TestBuild:
    def test_builds_no_pure_state(self, monkeypatch):
        calls = {"assign": 0}
        assign = PureState._assign

        def counted_assign(self, *args):
            calls["assign"] += 1
            return assign(self, *args)

        monkeypatch.setattr(PureState, "_assign", counted_assign)
        basis = build_singlet_basis(SystemShape(12, 2))
        assert calls["assign"] == 0
        assert basis.amplitudes.shape == (132, 924)

    @pytest.mark.parametrize("shape", LADDER + [(2, 1), (3, 3)], ids=str)
    def test_support_is_the_joint_support_of_the_members(self, basis_cache, shape):
        basis = basis_cache(*shape)
        again = SingletBasis(shape=basis.shape, tolerance=basis.tolerance, states=basis.states)
        assert again.support.dtype == basis.support.dtype
        assert again.support.tobytes() == basis.support.tobytes()
        assert again.amplitudes.tobytes() == basis.amplitudes.tobytes()
        for member in basis:
            canonical = PureState._from_arrays(
                member.shape, member.digits, member.values, canonicalize=True
            )
            assert member == canonical and hash(member) == hash(canonical)

    def test_arrays_are_read_only_and_fields_frozen(self, basis_cache):
        basis = basis_cache(4, 2)
        with pytest.raises(ValueError):
            basis.amplitudes[0, 0] = 1.0
        with pytest.raises(ValueError):
            basis.support[0, 0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            basis.support = basis.support


class TestConstructor:
    def test_empty_basis(self):
        basis = SingletBasis(shape=SystemShape(5, 2), tolerance=1e-9, states=())
        assert basis.dimension == 0 and basis.states == ()
        assert basis.gram().shape == (0, 0) and basis.support.shape == (0, 5)
        with pytest.raises(ValueError, match="empty"):
            basis.combine([])

    def test_member_of_another_shape_is_rejected(self, bell):
        with pytest.raises(ValueError, match="differs from basis shape"):
            SingletBasis(shape=SystemShape(4, 2), tolerance=1e-9, states=(bell,))

    def test_negative_index_reads_from_the_end(self, basis_cache):
        basis = basis_cache(6, 2)
        assert basis[-1] == basis.states[-1] == basis[basis.dimension - 1]
        with pytest.raises(IndexError):
            basis[basis.dimension]


class TestSitePermutedFile:
    def test_members_equal_their_entries(self, permuted):
        path, document = permuted
        basis = load_basis(path)
        entries = [state_from_dict(entry) for entry in document["states"]]
        assert basis.states == tuple(entries)
        # The members store different rows, so aligning them is not trivial.
        assert len({member.digits.tobytes() for member in basis}) > 1

    def test_readers_match_the_aligned_members(self, permuted):
        basis = load_basis(permuted[0])
        members = basis.states
        r, n = basis.dimension, basis.shape.n
        digits, amps = joint_amplitudes(members)
        assert np.array_equal(basis.support, digits)
        assert np.abs(basis.gram() - amps.conj() @ amps.T).max() <= 1e-15

        rng = np.random.default_rng(3)
        for _ in range(3):
            c = rng.standard_normal(r) + 1j * rng.standard_normal(r)
            assert basis.combine(c).distance(superpose(c, members)) <= 1e-15

        swaps = PairDeficitObjective(basis)._swaps.reshape(-1, r, r)
        for swap, (a, b) in zip(swaps, combinations(range(n), 2)):
            order = list(range(n))
            order[a], order[b] = b, a
            images = [permute_particles(member, order) for member in members]
            _, joint = joint_amplitudes([*members, *images])
            reference = joint[:r].conj() @ joint[r:].T
            assert np.abs(swap - reference).max() <= 1e-15

    def test_round_trip_is_bit_exact(self, permuted, tmp_path):
        basis = load_basis(permuted[0])
        path = str(tmp_path / "again.json")
        save_basis(basis, path)
        assert _read(path) == _json.dumps(basis_to_dict(basis)).encode()
        back = load_basis(path)
        assert back.support.tobytes() == basis.support.tobytes()
        assert back.amplitudes.tobytes() == basis.amplitudes.tobytes()
        assert back.states == basis.states
