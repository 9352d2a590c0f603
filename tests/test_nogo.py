"""Tests for the counting identity and the exact no-go certificate."""

from fractions import Fraction

import numpy as np
import pytest

from singletlab import (
    CertificateViolationError,
    PureState,
    SingletBasis,
    SystemShape,
    certificate_to_dict,
    certify,
    check_to_dict,
    counting_sum,
    verify_certificate_numerically,
)

from conftest import random_balanced_state


# (n, d) -> (required C(n,2)/d, actual d*C(K,2), gap, deficit floor)
FROZEN_CERTIFICATES = {
    (2, 2): (Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(1, 8)),
    (3, 3): (Fraction(1), Fraction(0), Fraction(1), Fraction(1, 9)),
    (4, 2): (Fraction(3), Fraction(2), Fraction(1), Fraction(1, 12)),
    (6, 2): (Fraction(15, 2), Fraction(6), Fraction(3, 2), Fraction(3, 40)),
    (6, 3): (Fraction(5), Fraction(3), Fraction(2), Fraction(4, 45)),
}


class TestCountingSum:
    @pytest.mark.parametrize("n,d", sorted(FROZEN_CERTIFICATES))
    def test_basis_members_hit_frozen_value(self, n, d, basis_cache):
        expected = float(FROZEN_CERTIFICATES[(n, d)][1])
        for member in basis_cache(n, d):
            assert counting_sum(member) == pytest.approx(expected, abs=1e-11)

    @pytest.mark.parametrize("n,d", [(4, 2), (6, 2), (6, 3)])
    def test_random_singlet_states(self, n, d, basis_cache):
        expected = float(FROZEN_CERTIFICATES[(n, d)][1])
        for state in basis_cache(n, d).sample(10, seed=7):
            assert counting_sum(state) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("n,d", [(4, 2), (6, 2), (6, 3)])
    def test_holds_for_any_balanced_support_state(self, n, d):
        """The identity needs only balanced support, not invariance."""
        expected = float(FROZEN_CERTIFICATES[(n, d)][1])
        rng = np.random.default_rng(17)
        for _ in range(10):
            state = random_balanced_state(SystemShape(n, d), rng)
            assert counting_sum(state) == pytest.approx(expected, abs=1e-10)

    def test_rejects_unbalanced_support(self):
        state = PureState(SystemShape(2, 2), {(0, 0): 1.0})
        with pytest.raises(ValueError):
            counting_sum(state)

    def test_rejects_unnormalized(self, bell):
        with pytest.raises(ValueError):
            counting_sum(bell.scaled(2.0))


class TestCertify:
    @pytest.mark.parametrize("n,d", sorted(FROZEN_CERTIFICATES))
    def test_frozen_rationals(self, n, d):
        cert = certify(SystemShape(n, d))
        required, actual, gap, floor = FROZEN_CERTIFICATES[(n, d)]
        assert cert.required == required
        assert cert.actual == actual
        assert cert.gap == gap
        assert cert.deficit_floor == floor
        assert not cert.two_uniform_possible

    def test_gap_consistency(self):
        for n, d in sorted(FROZEN_CERTIFICATES):
            cert = certify(SystemShape(n, d))
            assert cert.gap == cert.required - cert.actual
            assert cert.gap > 0

    def test_ame_exceptions(self):
        assert certify(SystemShape(2, 2)).ame_possible
        assert certify(SystemShape(3, 3)).ame_possible
        assert not certify(SystemShape(4, 2)).ame_possible
        assert not certify(SystemShape(6, 2)).ame_possible
        assert not certify(SystemShape(6, 3)).ame_possible

    def test_non_divisible_shape(self):
        cert = certify(SystemShape(3, 2))
        assert not cert.divisible
        assert cert.copies is None
        assert cert.actual is None and cert.gap is None
        assert not cert.two_uniform_possible
        assert "does not divide" in cert.verdict

    def test_single_level_degenerate_shape(self):
        cert = certify(SystemShape(4, 1))
        assert cert.gap == 0
        assert cert.two_uniform_possible
        assert "Degenerate" in cert.verdict

    def test_serialization_has_exact_rationals(self):
        payload = certificate_to_dict(certify(SystemShape(6, 2)))
        assert payload["required"] == {"num": 15, "den": 2}
        assert payload["deficit_floor"] == {"num": 3, "den": 40}
        assert payload["deficit_floor_decimal"] == pytest.approx(0.075)
        assert payload["K"] == 3


class TestVerifyNumerically:
    @pytest.mark.parametrize("n,d", [(4, 2), (6, 2)])
    def test_passes_on_genuine_basis(self, n, d, basis_cache):
        check = verify_certificate_numerically(basis_cache(n, d), trials=25, seed=3)
        assert check.passed
        assert check.trials == 25
        floor = float(FROZEN_CERTIFICATES[(n, d)][3])
        assert check.deficit_floor == pytest.approx(floor)
        assert check.min_pair_deficit >= floor - 1e-9
        assert check.max_identity_residual <= 1e-9

    def test_check_serialization(self, basis_cache):
        check = verify_certificate_numerically(basis_cache(4, 2), trials=5, seed=1)
        payload = check_to_dict(check)
        assert payload["passed"] is True
        assert payload["trials"] == 5

    def test_corrupt_member_is_rejected(self, basis_cache):
        """A balanced-support non-invariant member must trip the replay."""
        genuine = basis_cache(4, 2)
        rng = np.random.default_rng(11)
        impostor = random_balanced_state(SystemShape(4, 2), rng)
        corrupt = SingletBasis(
            shape=genuine.shape,
            tolerance=genuine.tolerance,
            states=(genuine.states[0], impostor),
        )
        with pytest.raises(CertificateViolationError):
            verify_certificate_numerically(corrupt, trials=5, seed=0)

    @pytest.mark.parametrize("n,d", [(4, 2), (6, 3)])
    def test_werner_identity_catches_what_the_invariance_check_missed(self, n, d, monkeypatch):
        """A balanced state meets the counting sum and the floor, but its pair
        marginals are not Werner states."""
        from singletlab import nogo

        monkeypatch.setattr(
            nogo,
            "_raising_residuals",
            lambda digits, rows, d: np.zeros(len(rows)),
        )
        impostor = random_balanced_state(SystemShape(n, d), np.random.default_rng(13))
        basis = SingletBasis(shape=SystemShape(n, d), tolerance=1e-9, states=(impostor,))
        with pytest.raises(CertificateViolationError, match="trial 0: .* Werner form"):
            verify_certificate_numerically(basis, trials=3, seed=0)

    def test_unbalanced_member_is_rejected(self, basis_cache):
        genuine = basis_cache(4, 2)
        stray = PureState(SystemShape(4, 2), {(0, 0, 0, 0): 1.0})
        corrupt = SingletBasis(
            shape=genuine.shape,
            tolerance=genuine.tolerance,
            states=(genuine.states[0], stray),
        )
        with pytest.raises(CertificateViolationError):
            verify_certificate_numerically(corrupt, trials=5, seed=0)

    def test_empty_basis_is_rejected(self):
        from singletlab import build_singlet_basis

        empty = build_singlet_basis(SystemShape(3, 2))
        with pytest.raises(ValueError):
            verify_certificate_numerically(empty, trials=5, seed=0)
