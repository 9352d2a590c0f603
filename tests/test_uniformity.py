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
    report_to_dict,
)

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
