"""``joint_amplitudes`` prices its concatenated digits, sort keys and amplitude matrix first.

The price is read as the smallest memory limit under which a join goes
through, found by bisection on a patched ``states._memory_limit``.  It
must hold the arrays it names: the concatenated digits beside either
their int64 sort keys (one per row and sort word) or the amplitude
matrix.  The sort's own index arrays are left out, so the price stays
below the join's traced peak.
"""

import itertools
import tracemalloc

import pytest

from singletlab import (
    LocalOperator,
    PureState,
    SystemShape,
    apply_local,
    joint_amplitudes,
    save_basis,
    states,
    superpose,
)
from singletlab.cli import main


def swapped(state):
    """``state`` beside its image under the label transposition (0 1)."""
    d = state.shape.d
    swap = LocalOperator.basis_permutation((1, 0) + tuple(range(2, d)))
    return [state, apply_local(state, swap)]


def pair_state(n):
    half = 2**-0.5
    return PureState(SystemShape(n, 2), {(0, 1) * (n // 2): half, (1, 0) * (n // 2): half})


def singlet_pairs_24():
    words = itertools.product([(0, 1), (1, 0)], repeat=12)
    return PureState(SystemShape(24, 2), {sum(word, ()): 1 / 64 for word in words})


CASES = {
    "basis8_2": lambda cache: list(cache(8, 2).states),
    "swap9_3": lambda cache: swapped(cache(9, 3)[0]),
    "swap8_4": lambda cache: swapped(cache(8, 4)[0]),
    "pair70": lambda cache: [pair_state(70)] * 2,
    "pair1100": lambda cache: [pair_state(1100)] * 2,
    "pairs24": lambda cache: swapped(singlet_pairs_24()),
}


def price(members, monkeypatch):
    """The smallest memory limit under which ``joint_amplitudes(members)`` goes through."""
    low, high = 0, 1 << 40
    while low < high:
        middle = (low + high) // 2
        monkeypatch.setattr(states, "_memory_limit", lambda: middle)
        try:
            joint_amplitudes(members)
            high = middle
        except MemoryError:
            low = middle + 1
    monkeypatch.undo()
    return low


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_price_holds_the_named_arrays_and_stays_below_the_traced_peak(
    basis_cache, monkeypatch, case
):
    members = CASES[case](basis_cache)
    n, d = members[0].shape.n, members[0].shape.d
    rows = sum(member.values.size for member in members)
    words = -(-n // states._word_digits(d, n))
    tracemalloc.start()
    try:
        _, amps = joint_amplitudes(members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    digits = rows * n * members[0].digits.itemsize
    named = max(digits + 8 * words * rows, digits + amps.nbytes)
    assert named == price(members, monkeypatch) <= peak


def test_an_oversized_join_is_refused_before_allocating(monkeypatch):
    members = swapped(pair_state(4))
    message = "joining 2 states of n=4 sites with d=2 levels would take about"
    # Four rows of four one-byte digits: 16 bytes beside 32 of sort keys,
    # then beside the 2 x 2 complex matrix, 64 bytes.
    for limit in (47, 79):
        monkeypatch.setattr(states, "_memory_limit", lambda limit=limit: limit)
        with pytest.raises(MemoryError, match=message):
            joint_amplitudes(members)
        with pytest.raises(MemoryError, match=message):
            superpose([1.0, 1.0], members)
        with pytest.raises(MemoryError, match=message):
            members[0].overlap(members[1])
    monkeypatch.setattr(states, "_memory_limit", lambda: 80)
    assert members[0].overlap(members[1]) == pytest.approx(1.0)


def test_the_cli_answers_a_refused_join_with_exit_2(basis_cache, monkeypatch, tmp_path, capsys):
    basis = basis_cache(6, 2)
    path = str(tmp_path / "basis.json")
    save_basis(basis, path)
    # Loading the basis joins its members before anything else is priced.
    limit = price(list(basis.states), monkeypatch) - 1
    monkeypatch.setattr(states, "_memory_limit", lambda: limit)
    for command in ("verify-lemmas", "optimize"):
        assert main([command, "--basis", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: joining 5 states of n=6 sites with d=2 levels")
        assert captured.out == ""
