"""Tests for k-uniformity reports and the pair-marginal deficit."""

import itertools
import math

import numpy as np
import pytest

from singletlab import (
    PureState,
    SystemShape,
    is_ame,
    is_k_uniform,
    pair_deficit,
    partial_trace,
    report_to_dict,
    save_state,
    states,
)
from singletlab.cli import main

from conftest import dense_uniform_deviation, random_dense_state


class TestIsKUniform:
    def test_pair_singlet_is_one_uniform(self, bell):
        report = is_k_uniform(bell, 1)
        assert report.is_uniform
        assert bool(report)
        assert report.deficit == pytest.approx(0.0, abs=1e-14)

    def test_ring_state_is_exactly_two_uniform(self, ring6):
        assert is_k_uniform(ring6, 1).is_uniform
        assert is_k_uniform(ring6, 2).is_uniform
        report3 = is_k_uniform(ring6, 3)
        assert not report3.is_uniform
        assert report3.deficit > 0.01

    def test_product_state_fails(self):
        product = PureState(SystemShape(2, 2), {(0, 0): 1.0})
        report = is_k_uniform(product, 1)
        assert not report.is_uniform
        # each single-site marginal is diag(1,0): squared distance from I/2 is 1/2
        assert report.deficit == pytest.approx(1.0)
        assert dict(report.deviations)[(0,)] == pytest.approx(0.5)

    def test_deviations_match_dense_oracle(self):
        rng = np.random.default_rng(21)
        for shape in [SystemShape(4, 2), SystemShape(3, 3)]:
            for _ in range(10):
                state = random_dense_state(shape, rng)
                for k in range(1, shape.n):
                    report = is_k_uniform(state, k)
                    assert len(report.deviations) == math.comb(shape.n, k)
                    total = 0.0
                    for sites, dev in report.deviations:
                        expected = dense_uniform_deviation(state, sites)
                        assert dev == pytest.approx(expected, abs=1e-12)
                        total += expected
                    assert report.deficit == pytest.approx(total, abs=1e-11)

    def test_worst_subsystem_attains_maximum(self):
        rng = np.random.default_rng(23)
        state = random_dense_state(SystemShape(5, 2), rng)
        report = is_k_uniform(state, 2)
        lookup = dict(report.deviations)
        worst = max(lookup.values())
        assert lookup[report.worst_subsystem] == pytest.approx(worst)

    @pytest.mark.parametrize("n,d", [(4, 2), (6, 2), (6, 3)])
    def test_half_size_worst_subsystem_contains_site_zero(self, n, d):
        """At k = n/2 every subsystem ties with its complement, so roundoff
        must not decide which of the two is reported."""
        rng = np.random.default_rng(37)
        for _ in range(10):
            report = is_k_uniform(random_dense_state(SystemShape(n, d), rng), n // 2)
            assert report.worst_subsystem[0] == 0

    def test_rejects_out_of_range_k(self, bell):
        with pytest.raises(ValueError):
            is_k_uniform(bell, 0)
        with pytest.raises(ValueError):
            is_k_uniform(bell, 2)

    def test_tolerance_widens_acceptance(self):
        product = PureState(SystemShape(2, 2), {(0, 0): 1.0})
        assert not is_k_uniform(product, 1, tol=1e-9).is_uniform
        assert is_k_uniform(product, 1, tol=10.0).is_uniform


def per_subset_deviations(state, k):
    """One ``partial_trace`` per size-``k`` subsystem, in lexicographic order."""
    return [
        (sites, partial_trace(state, sites).uniform_deviation())
        for sites in itertools.combinations(range(state.shape.n), k)
    ]


def singlet_pairs(pairs):
    """Product of two-site singlets on sites (0, 1), (2, 3), ..., every amplitude +-2**(-pairs / 2)."""
    return PureState(
        SystemShape(2 * pairs, 2),
        {
            sum(word, ()): (-1) ** sum(first for first, _ in word) * 2.0 ** (-pairs / 2)
            for word in itertools.product([(0, 1), (1, 0)], repeat=pairs)
        },
    )


class TestSmallerSide:
    """Each marginal is formed on the smaller side of its cut and mapped back."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_complements_come_in_reverse_order(self, n):
        for k in range(1, n):
            smaller = list(itertools.combinations(range(n), n - k))
            for i, sites in enumerate(itertools.combinations(range(n), k)):
                assert set(sites) | set(smaller[-1 - i]) == set(range(n))
                assert not set(sites) & set(smaller[-1 - i])

    @pytest.mark.parametrize("n,d", [(6, 2), (7, 2), (6, 3), (4, 3)])
    def test_matches_the_per_subset_loop(self, n, d):
        rng = np.random.default_rng(41)
        tol = 1e-9
        for _ in range(3):
            state = random_dense_state(SystemShape(n, d), rng)
            for k in range(1, n):
                report = is_k_uniform(state, k, tol)
                reference = per_subset_deviations(state, k)
                assert [sites for sites, _ in report.deviations] == [s for s, _ in reference]
                for (sites, dev), (_, expected) in zip(report.deviations, reference):
                    if 2 * k <= n:
                        assert abs(dev - expected) <= 1e-15
                    else:
                        assert abs(dev - dense_uniform_deviation(state, sites)) <= 1e-12
                assert abs(report.deficit - sum(dev for _, dev in reference)) <= 1e-12
                top = max(dev for _, dev in reference)
                worst = next(sites for sites, dev in reference if dev >= top - tol)
                assert report.worst_subsystem == worst

    @pytest.mark.parametrize("n,d", [(2, 2), (4, 2), (6, 2), (8, 2), (4, 3), (6, 3)])
    def test_half_cut_ties_are_exact(self, n, d):
        state = random_dense_state(SystemShape(n, d), np.random.default_rng(43))
        deviations = dict(is_k_uniform(state, n // 2).deviations)
        for sites, dev in deviations.items():
            complement = tuple(site for site in range(n) if site not in sites)
            assert dev == deviations[complement]

    def test_singlet_pairs_exact_at_one_and_fifteen_sites(self):
        state = singlet_pairs(8)
        assert is_k_uniform(state, 1).deficit == 0.0
        report = is_k_uniform(state, 15)
        assert report.deficit == 16 * (1 / 2 - 2**-15) == 7.99951171875
        assert report.worst_subsystem == tuple(range(15))
        assert not report.is_uniform

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_unnormalized_state_is_refused_on_either_side(self, k):
        state = random_dense_state(SystemShape(6, 2), np.random.default_rng(47)).scaled(1.5)
        with pytest.raises(ValueError, match="state norm is 1.5, expected 1"):
            is_k_uniform(state, k)

    def test_a_block_that_cannot_fit_is_refused(self, monkeypatch, tmp_path, capsys):
        state = singlet_pairs(3)
        path = str(tmp_path / "pairs.json")
        save_state(state, path)
        # The 8x8 three-site block prices at 16 * (2 * 64 + 3 * 64) bytes.
        monkeypatch.setattr(states, "_memory_limit", lambda: 16 * 5 * 64 - 1)
        with pytest.raises(MemoryError, match="a 3-site marginal of n=6 sites with d=2 levels"):
            is_k_uniform(state, 3)
        # Four sites are priced on their two-site complement: a singlet pair
        # deviates by 3/4, any other pair by 0, and the cut shifts each by 3/16.
        assert is_k_uniform(state, 4).deficit == pytest.approx(3 * 3 / 4 + 15 * 3 / 16)
        assert main(["uniformity", "--state", path, "--k", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: a 3-site marginal of n=6 sites")
        assert captured.out == ""


class TestPairDeficit:
    def test_frozen_reference_values(self, bell, four_qubit):
        assert pair_deficit(bell) == pytest.approx(0.75, abs=1e-12)
        assert pair_deficit(four_qubit) == pytest.approx(1.5, abs=1e-12)
        zeros = PureState(SystemShape(4, 2), {(0, 0, 0, 0): 1.0})
        assert pair_deficit(zeros) == pytest.approx(4.5, abs=1e-12)

    def test_two_uniform_reference_state_has_zero_deficit(self, ring6):
        assert pair_deficit(ring6) == pytest.approx(0.0, abs=1e-10)

    def test_reference_state_verified_exhaustively(self, ring6):
        """Independent dense check that the bundled reference really is
        two-uniform: every one of the 15 pair marginals equals I/4."""
        assert ring6.shape == SystemShape(6, 2)
        assert len(ring6.support()) == 64
        assert all(
            abs(abs(a) - 0.125) < 1e-15 for a in dict(ring6.amplitudes).values()
        )
        tensor = ring6.to_dense().reshape((2,) * 6)
        for pair in itertools.combinations(range(6), 2):
            drop = [s for s in range(6) if s not in pair]
            block = np.transpose(tensor, list(pair) + drop).reshape(4, 16)
            rho = block @ block.conj().T
            assert np.abs(rho - np.eye(4) / 4).max() < 1e-14

    def test_matches_sum_over_pairs(self):
        rng = np.random.default_rng(29)
        for shape in [SystemShape(4, 2), SystemShape(3, 3), SystemShape(6, 2)]:
            state = random_dense_state(shape, rng)
            expected = sum(
                dense_uniform_deviation(state, pair)
                for pair in itertools.combinations(range(shape.n), 2)
            )
            assert pair_deficit(state) == pytest.approx(expected, abs=1e-11)

    def test_pair_case_equals_k2_report(self):
        rng = np.random.default_rng(31)
        state = random_dense_state(SystemShape(4, 2), rng)
        assert pair_deficit(state) == pytest.approx(is_k_uniform(state, 2).deficit, abs=1e-12)

    def test_requires_at_least_two_sites(self):
        with pytest.raises(ValueError):
            pair_deficit(PureState(SystemShape(1, 2), {(0,): 1.0}))

    def test_requires_a_normalized_state(self, bell):
        with pytest.raises(ValueError, match="state norm is"):
            pair_deficit(bell.scaled(2.0))
        with pytest.raises(ValueError, match="state norm is"):
            is_k_uniform(bell.scaled(2.0), 1)


class TestIsAme:
    def test_pair_and_qutrit_singlets_are_maximal(self, bell, qutrit):
        assert is_ame(bell).is_uniform
        assert is_ame(qutrit).is_uniform

    def test_four_qubit_singlet_is_not(self, four_qubit):
        assert not is_ame(four_qubit).is_uniform

    def test_ring_state_is_not(self, ring6):
        # two-uniform but the n=6 maximal requirement is k=3
        report = is_ame(ring6)
        assert report.k == 3
        assert not report.is_uniform

    def test_ghz_is_not(self):
        ghz = PureState(
            SystemShape(4, 2),
            {(0, 0, 0, 0): 1 / np.sqrt(2), (1, 1, 1, 1): 1 / np.sqrt(2)},
        )
        assert not is_ame(ghz).is_uniform


def test_report_serialization_round_trip(bell):
    report = is_k_uniform(bell, 1)
    payload = report_to_dict(report, bell)
    assert payload["k"] == 1
    assert payload["is_k_uniform"] is True
    assert payload["deficit"] == pytest.approx(0.0, abs=1e-14)
    assert payload["n"] == 2 and payload["d"] == 2
    assert len(payload["subsystems"]) == 2
