"""k-uniformity deviations formed sector by sector, a chunk of subsets at a time.

``is_k_uniform`` reads every marginal from ``states._marginal_deviations``.
The reference here is the loop it replaced: one dense ``_marginal_blocks``
per subset on the smaller side of each cut, mapped back with the same
shift.  Singlet-pair products have closed-form deficits, checked exactly
against an independent rational oracle, and the wide shapes pin the
values of states that no dense vector could hold.
"""

import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from singletlab import DEFAULT_TOL, PureState, SupportProfile, SystemShape, is_k_uniform, states
from singletlab.states import _marginal_blocks, _uniform_deviations, enumerate_support

from test_uniformity import singlet_pairs


def loop_report(state, k, tol=DEFAULT_TOL):
    """Deviations, deficit and worst subsystem from one dense marginal per subset."""
    n, d = state.shape.n, state.shape.d
    side = min(k, n - k)
    values = [
        float(_uniform_deviations(_marginal_blocks(state.digits, state.values[None], sites, d))[0])
        for sites in itertools.combinations(range(n), side)
    ]
    if k > side:
        shift = (2 * state.norm() ** 2 - 1) * (d**-side - d**-k)
        values = [value + shift for value in reversed(values)]
    deviations = list(zip(itertools.combinations(range(n), k), values))
    top = max(values)
    worst = next(sites for sites, dev in deviations if dev >= top - tol)
    return deviations, sum(values), worst


def random_words_state(shape, count, rng):
    """Normalized state on ``count`` random balanced words: most complement rows are missing."""
    words = enumerate_support(shape, SupportProfile.uniform(shape))
    chosen = [words[i] for i in rng.choice(len(words), size=count, replace=False)]
    amps = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return PureState(shape, dict(zip(chosen, amps / np.linalg.norm(amps))), canonicalize=False)


SHAPES = [(6, 2), (8, 2), (6, 3), (9, 3), (8, 4)]


@pytest.fixture(scope="module")
def single_profile_states(basis_cache):
    """Gaussian combinations at every shape, a bare member, sparse words and a one-level state."""
    rng = np.random.default_rng(53)
    cases = {f"combination{n}_{d}": basis_cache(n, d).random_state(rng) for n, d in SHAPES}
    cases["member9_3"] = basis_cache(9, 3)[0].normalized()
    cases["words8_2"] = random_words_state(SystemShape(8, 2), 5, rng)
    assert cases["words8_2"].values.size == 5
    cases["one_level3_1"] = PureState(SystemShape(3, 1), {(0, 0, 0): 1.0})
    return cases


CASES = [f"combination{n}_{d}" for n, d in SHAPES] + ["member9_3", "words8_2", "one_level3_1"]


@pytest.mark.parametrize("case", CASES)
def test_every_k_matches_the_per_subset_loop(single_profile_states, case):
    state = single_profile_states[case]
    assert state.common_profile() is not None
    n = state.shape.n
    for k in range(1, n):
        report = is_k_uniform(state, k)
        deviations, deficit, worst = loop_report(state, k)
        assert [sites for sites, _ in report.deviations] == [sites for sites, _ in deviations]
        if 2 * k <= n:
            for (_, dev), (_, expected) in zip(report.deviations, deviations):
                assert abs(dev - expected) <= 1e-15
        assert abs(report.deficit - deficit) <= 1e-12
        assert report.worst_subsystem == worst


@pytest.mark.parametrize("case", CASES)
def test_one_subset_chunks_give_the_same_report(single_profile_states, monkeypatch, case):
    state = single_profile_states[case]
    reports = [is_k_uniform(state, k) for k in range(1, state.shape.n)]
    monkeypatch.setattr(states, "_CHUNK_BYTES", 1)
    assert [is_k_uniform(state, k) for k in range(1, state.shape.n)] == reports


def test_a_limit_one_byte_above_one_subset_gives_the_unlimited_report(monkeypatch):
    state = singlet_pairs(4)
    rng = np.random.default_rng(59)
    state = PureState._from_arrays(
        state.shape, state.digits, state.values * np.exp(1j * rng.uniform(0, 6, state.values.size))
    )
    unlimited = [is_k_uniform(state, k) for k in range(1, 8)]
    for k, report in enumerate(unlimited, start=1):
        side = min(k, 8 - k)
        # The price of one subset: its dense factor twice and its block three times.
        price = 16 * (2 * 2**side * min(16, 2 ** (8 - side)) + 3 * 4**side)
        monkeypatch.setattr(states, "_memory_limit", lambda price=price: price + 1)
        assert is_k_uniform(state, k) == report
        monkeypatch.setattr(states, "_memory_limit", lambda price=price: price - 1)
        with pytest.raises(MemoryError, match=f"a {side}-site marginal of n=8 sites"):
            is_k_uniform(state, k)


def pairs_deficit(m, k):
    """Exact deficit at ``k`` of ``m`` singlet pairs.

    Taking ``w`` whole pairs and ``j`` halves of others gives a product of
    ``w`` pure singlets and ``j`` maximally mixed qubits, with purity
    ``2**-j``; its squared distance to ``I / 2**k`` is ``2**-j - 2**-k``.
    """
    return sum(
        comb(m, w) * comb(m - w, j) * 2**j * (Fraction(1, 2**j) - Fraction(1, 2**k))
        for w in range(k // 2 + 1)
        for j in [k - 2 * w]
        if j <= m - w
    )


@pytest.mark.parametrize(
    "m,k", [(6, k) for k in range(1, 12)] + [(8, 4), (8, 6)], ids=lambda value: str(value)
)
def test_singlet_pairs_match_the_closed_form_exactly(m, k):
    # Every amplitude is +-2**(-m/2), so each block entry is exact in any order.
    assert is_k_uniform(singlet_pairs(m), k).deficit == pairs_deficit(m, k)


def test_closed_form_values_at_twelve_and_sixteen_sites():
    assert pairs_deficit(6, 6) == Fraction("126.5625")
    assert pairs_deficit(8, 4) == Fraction("152.25")
    assert pairs_deficit(8, 6) == Fraction("658.875")
    assert pairs_deficit(8, 15) == Fraction("7.99951171875")


class TestWideShapes:
    """Complement codes wider than one word are packed into several."""

    def test_seventy_qubit_ghz_state(self):
        half = 1 / np.sqrt(2)
        state = PureState(SystemShape(70, 2), {(0,) * 70: half, (1,) * 70: half})
        assert is_k_uniform(state, 1).deficit == pytest.approx(0.0, abs=1e-12)
        # Each of the C(70, 2) pair marginals is diag(1/2, 0, 0, 1/2), off by 1/4.
        assert is_k_uniform(state, 2).deficit == pytest.approx(603.75, abs=1e-12)
        # Each 69-site marginal is its one-site complement's, shifted by 1/2 - 2**-69.
        assert is_k_uniform(state, 69).deficit == pytest.approx(35.0, abs=1e-12)

    def test_eleven_hundred_qubit_balanced_state(self):
        state = PureState(
            SystemShape(1100, 2), {(0, 1) * 550: 2**-0.5, (1, 0) * 550: 2**-0.5}
        )
        assert state.common_profile() == SupportProfile((550, 550))
        report = is_k_uniform(state, 1)
        assert report.deficit == pytest.approx(0.0, abs=1e-15)
        assert len(report.deviations) == 1100

    def test_a_half_cut_of_eleven_hundred_qubits_is_refused_before_any_subset_is_listed(self):
        # C(1100, 550) subsets could never be listed; one 2**1100-row block is priced first.
        state = PureState(
            SystemShape(1100, 2), {(0, 1) * 550: 2**-0.5, (1, 0) * 550: 2**-0.5}
        )
        for k in (549, 550, 551):
            with pytest.raises(MemoryError, match=f"a {min(k, 1100 - k)}-site marginal of n=1100"):
                is_k_uniform(state, k)
