"""k-uniformity on a complete support: factor columns from one rank table, not a sort.

A support is complete when every stored row has one occupation profile
``P`` and every word of ``P`` is stored, as for a random combination of
a singlet basis.  ``states._marginal_deviations`` then reads each
complement row's factor column from ``states._complement_ranks`` instead
of sorting every subset's rows.  Returning None from that selector
forces the sort route, the reference here: the two routes lay out the
same factors, so every report must be equal bit for bit.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singletlab import PureState, SupportProfile, SystemShape, enumerate_support, is_k_uniform
from singletlab import states

from test_sector_marginals import random_words_state
from test_uniformity import singlet_pairs

LADDER = [(4, 2), (6, 2), (8, 2), (10, 2), (12, 2), (6, 3), (9, 3), (8, 4)]


def every_word(counts, rng):
    """Normalized state with a nonzero Gaussian amplitude on every word of ``counts``."""
    shape = SystemShape(sum(counts), len(counts))
    words = enumerate_support(shape, SupportProfile(counts))
    amps = rng.standard_normal(len(words)) + 1j * rng.standard_normal(len(words))
    return PureState(shape, dict(zip(words, amps / np.linalg.norm(amps))), canonicalize=False)


def sorted_reports(state, ks):
    """Reports at each ``k`` with the rank table refused, so every subset is sorted."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(states, "_complement_ranks", lambda state, profile, k: None)
        return [is_k_uniform(state, k) for k in ks]


def table_fits(state, k):
    """Whether the rank table's complement codes are no more than the stored rows."""
    n, d = state.shape.n, state.shape.d
    return d ** (n - min(k, n - k)) <= state.values.size


@pytest.fixture(scope="module")
def complete_states(basis_cache):
    """A random combination at every ladder shape, all four words of (3,1) and a one-level state."""
    rng = np.random.default_rng(61)
    cases = {f"combination{n}_{d}": basis_cache(n, d).random_state(rng) for n, d in LADDER}
    cases["profile3_1"] = every_word((3, 1), rng)
    cases["one_level3_1"] = PureState(SystemShape(3, 1), {(0, 0, 0): 1.0})
    return cases


CASES = [f"combination{n}_{d}" for n, d in LADDER] + ["profile3_1", "one_level3_1"]


@pytest.mark.parametrize("case", CASES)
def test_the_rank_table_gives_the_sorted_report_at_every_k(complete_states, case):
    state = complete_states[case]
    profile = state.common_profile()
    assert profile is not None and state.values.size == profile.size()
    ks = range(1, state.shape.n)
    assert [is_k_uniform(state, k) for k in ks] == sorted_reports(state, ks)


@pytest.fixture
def sort_calls(monkeypatch):
    """Count the calls of ``states._sort_rows``."""
    calls = []
    sort_rows = states._sort_rows

    def spy(*args):
        calls.append(1)
        return sort_rows(*args)

    monkeypatch.setattr(states, "_sort_rows", spy)
    return calls


@pytest.mark.parametrize("case", CASES)
def test_a_complete_support_is_never_sorted_where_the_table_fits(
    complete_states, sort_calls, case
):
    state = complete_states[case]
    ks = range(1, state.shape.n)
    assert any(table_fits(state, k) for k in ks)
    for k in ks:
        sort_calls.clear()
        is_k_uniform(state, k)
        assert bool(sort_calls) != table_fits(state, k)


def test_incomplete_supports_are_still_sorted(basis_cache, sort_calls):
    rng = np.random.default_rng(67)
    cases = {
        "words8_2": random_words_state(SystemShape(8, 2), 5, rng),
        "member9_3": basis_cache(9, 3)[0].normalized(),
        "pairs4": singlet_pairs(4),
        "pairs6": singlet_pairs(6),
    }
    for name, state in cases.items():
        profile = state.common_profile()
        assert profile is not None and state.values.size < profile.size(), name
        for k in range(1, state.shape.n):
            sort_calls.clear()
            is_k_uniform(state, k)
            assert sort_calls, (name, k)


def test_several_profiles_are_still_sorted(sort_calls):
    # Every two-qubit word with amplitude 1/2, the product |+>|+>: no common profile.
    shape = SystemShape(2, 2)
    state = PureState(shape, {word: 0.5 for word in itertools.product(range(2), repeat=2)})
    assert state.common_profile() is None
    # Each one-site marginal is pure, at distance 1/2 from I / 2.
    assert is_k_uniform(state, 1).deficit == 1.0
    assert sort_calls


@st.composite
def profiles(draw):
    """Label counts of ``d <= 3`` levels over ``2 <= n <= 8`` sites."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 8))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=d - 1, max_size=d - 1)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, n]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(counts=profiles(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_both_routes_agree_on_random_complete_profiles(counts, seed, data):
    state = every_word(counts, np.random.default_rng(seed))
    k = data.draw(st.integers(1, state.shape.n - 1))
    assert is_k_uniform(state, k) == sorted_reports(state, [k])[0]
