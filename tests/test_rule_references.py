"""Independent references for rules that are enforced in exactly one place.

Each test pins a primitive against a route that does not share its code:
the unitarity check's behaviour on non-finite input, the Haar loop of
``verify_invariance`` against a loop that wraps every draw in
``LocalOperator.unitary``, ``permutation_sign`` against the determinant of
its permutation matrix, and the full dict forms of the certificate and
its numerical check.
"""

import itertools
import warnings

import numpy as np
import pytest

from singletlab import (
    LocalOperator,
    SystemShape,
    certificate_to_dict,
    certify,
    check_to_dict,
    haar_unitary,
    permutation_sign,
    verify_certificate_numerically,
    verify_invariance,
)
from singletlab.states import _local_image

LADDER = [(4, 2), (6, 2), (8, 2), (10, 2), (12, 2), (6, 3), (9, 3), (8, 4)]


class TestUnitaryOnNonFiniteInput:
    @pytest.mark.parametrize(
        "matrix",
        [np.full((2, 2), np.nan), np.array([[1.0, np.inf], [0.0, 1.0]])],
        ids=["nan", "inf"],
    )
    def test_rejected_with_defect_inf_and_no_warning(self, matrix):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"matrix is not unitary \(defect inf "):
                LocalOperator.unitary(matrix)


def wrapped_haar_residual(state, samples, seed):
    """Worst phase-covariance residual, each Haar draw wrapped as a checked operator."""
    n, d = state.shape.n, state.shape.d
    psi = state.to_dense()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        image = _local_image(psi, LocalOperator.unitary(haar_unitary(d, rng)).matrix, n, d)
        phase = np.vdot(psi, image)
        worst = max(worst, float(np.linalg.norm(image - phase * psi)))
    return worst


class TestHaarRoute:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fixtures_match_the_wrapped_route(self, bell, qutrit, four_qubit, seed):
        for state in (bell, qutrit, four_qubit):
            assert verify_invariance(state, 4, seed) == wrapped_haar_residual(state, 4, seed)

    @pytest.mark.parametrize("n,d", LADDER)
    def test_ladder_member_matches_the_wrapped_route(self, n, d, basis_cache):
        member = basis_cache(n, d).states[0]
        for seed in range(3):
            assert verify_invariance(member, 4, seed) == wrapped_haar_residual(member, 4, seed)


class TestPermutationSign:
    @pytest.mark.parametrize("k", range(7))
    def test_matches_the_determinant_of_the_permutation_matrix(self, k):
        for perm in itertools.permutations(range(k)):
            assert permutation_sign(perm) == round(np.linalg.det(np.eye(k)[list(perm)]))

    def test_empty_permutation_is_even(self):
        assert permutation_sign(()) == 1

    @pytest.mark.parametrize("perm", [(0, 0), (1, 2)])
    def test_rejects_a_non_permutation(self, perm):
        with pytest.raises(ValueError, match="is not a permutation of"):
            permutation_sign(perm)


EXPECTED_CERTIFICATES = {
    (3, 2): {
        "n": 3,
        "d": 2,
        "divisible": False,
        "K": None,
        "required": {"num": 3, "den": 2},
        "required_decimal": 1.5,
        "actual": None,
        "actual_decimal": None,
        "gap": None,
        "gap_decimal": None,
        "deficit_floor": None,
        "deficit_floor_decimal": None,
        "two_uniform_possible": False,
        "ame_possible": False,
        "verdict": (
            "d=2 does not divide n=3: no multi-index can occupy every label equally, "
            "so no collectively invariant states exist."
        ),
    },
    (4, 1): {
        "n": 4,
        "d": 1,
        "divisible": True,
        "K": 4,
        "required": {"num": 6, "den": 1},
        "required_decimal": 6.0,
        "actual": {"num": 6, "den": 1},
        "actual_decimal": 6.0,
        "gap": {"num": 0, "den": 1},
        "gap_decimal": 0.0,
        "deficit_floor": {"num": 0, "den": 1},
        "deficit_floor_decimal": 0.0,
        "two_uniform_possible": True,
        "ame_possible": True,
        "verdict": (
            "Degenerate single-level system: the only invariant state is the product "
            "state and every marginal is trivially maximally mixed; the counting "
            "argument is vacuous here."
        ),
    },
    (3, 3): {
        "n": 3,
        "d": 3,
        "divisible": True,
        "K": 1,
        "required": {"num": 1, "den": 1},
        "required_decimal": 1.0,
        "actual": {"num": 0, "den": 1},
        "actual_decimal": 0.0,
        "gap": {"num": 1, "den": 1},
        "gap_decimal": 1.0,
        "deficit_floor": {"num": 1, "den": 9},
        "deficit_floor_decimal": 1 / 9,
        "two_uniform_possible": False,
        "ame_possible": True,
        "verdict": (
            "Counting gap 1 > 0: no invariant state of this shape is two-uniform. "
            "Absolute maximal entanglement only requires 1-uniformity at n=3, which "
            "invariant states do satisfy."
        ),
    },
    (6, 2): {
        "n": 6,
        "d": 2,
        "divisible": True,
        "K": 3,
        "required": {"num": 15, "den": 2},
        "required_decimal": 7.5,
        "actual": {"num": 6, "den": 1},
        "actual_decimal": 6.0,
        "gap": {"num": 3, "den": 2},
        "gap_decimal": 1.5,
        "deficit_floor": {"num": 3, "den": 40},
        "deficit_floor_decimal": 3 / 40,
        "two_uniform_possible": False,
        "ame_possible": False,
        "verdict": (
            "Counting gap 3/2 > 0: no invariant state of this shape is two-uniform, "
            "hence none is absolutely maximally entangled; every such state has pair "
            "deficit at least 3/40."
        ),
    },
}


class TestDictForms:
    @pytest.mark.parametrize("n,d", list(EXPECTED_CERTIFICATES), ids=str)
    def test_every_certificate_field_per_verdict_branch(self, n, d):
        payload = certificate_to_dict(certify(SystemShape(n, d)))
        assert list(payload.items()) == list(EXPECTED_CERTIFICATES[(n, d)].items())

    def test_check_keys_keep_the_verify_out_layout(self, basis_cache):
        check = verify_certificate_numerically(basis_cache(4, 2), trials=5, seed=1)
        payload = check_to_dict(check)
        assert list(payload) == [
            "trials",
            "seed",
            "max_identity_residual",
            "min_pair_deficit",
            "deficit_floor",
            "passed",
        ]
        assert list(payload.values()) == [
            check.trials,
            check.seed,
            check.max_identity_residual,
            check.min_pair_deficit,
            check.deficit_floor,
            check.passed,
        ]
