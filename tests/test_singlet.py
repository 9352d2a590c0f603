"""Tests for the collectively invariant subspace builder and phase analysis.

The dimension counts are cross-checked against two independent oracles: a
standard-Young-tableaux backtracking counter for the closed-form count, and a
dense full-Hilbert-space null-space computation for the subspace itself.
"""

import itertools
import os
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from singletlab import (
    PhaseFunctionError,
    PureState,
    SubspaceRankError,
    SystemShape,
    apply_local,
    build_singlet_basis,
    check_sign_relation,
    expected_dimension,
    extract_phase_function,
    haar_unitary,
    load_basis,
    verify_invariance,
)
from singletlab.singlet import all_label_permutations, standard_traceless_generators
from singletlab import LocalOperator

from conftest import DATA_DIR, kron_chain, random_dense_state


# --------------------------------------------------------------------------- #
# independent oracles                                                          #
# --------------------------------------------------------------------------- #

def count_rectangular_tableaux(rows, cols):
    """Count standard Young tableaux of a rows x cols rectangle by backtracking."""

    def extend(filled):
        if all(f == cols for f in filled):
            return 1
        total = 0
        for r in range(rows):
            if filled[r] < cols and (r == 0 or filled[r - 1] > filled[r]):
                total += extend(filled[:r] + (filled[r] + 1,) + filled[r + 1:])
        return total

    return extend((0,) * rows)


def dense_invariant_kernel(shape):
    """Joint null space of all collective generators on the full Hilbert space."""
    gens = standard_traceless_generators(shape.d)
    dim = shape.total_dimension
    blocks = []
    for g in gens:
        op = np.zeros((dim, dim), dtype=complex)
        for site in range(shape.n):
            mats = [np.eye(shape.d)] * shape.n
            mats[site] = g
            op += kron_chain(mats)
        blocks.append(op)
    stacked = np.vstack(blocks)
    _, sigma, vh = np.linalg.svd(stacked)
    rank = int(np.sum(sigma > 1e-9 * sigma[0]))
    return vh[rank:].conj()  # rows span the kernel


# --------------------------------------------------------------------------- #
# dimension counting                                                           #
# --------------------------------------------------------------------------- #

EXPECTED_DIMENSIONS = {
    (2, 2): 1,
    (3, 3): 1,
    (4, 2): 2,
    (6, 2): 5,
    (6, 3): 5,
    (8, 2): 14,
    (4, 4): 1,
}


@pytest.mark.parametrize("n,d", sorted(EXPECTED_DIMENSIONS))
def test_expected_dimension_frozen_values(n, d):
    assert expected_dimension(SystemShape(n, d)) == EXPECTED_DIMENSIONS[(n, d)]


@pytest.mark.parametrize("n,d", [(2, 2), (4, 2), (6, 2), (8, 2), (3, 3), (6, 3), (4, 4), (3, 1), (10, 2)])
def test_expected_dimension_matches_tableaux_oracle(n, d):
    shape = SystemShape(n, d)
    assert expected_dimension(shape) == count_rectangular_tableaux(d, n // d)


@pytest.mark.parametrize("n,d", [(3, 2), (5, 2), (4, 3), (5, 3), (7, 4)])
def test_expected_dimension_zero_when_not_divisible(n, d):
    assert expected_dimension(SystemShape(n, d)) == 0


def test_traceless_generators_structure():
    for d in (2, 3, 4):
        gens = standard_traceless_generators(d)
        assert len(gens) == d * d - 1
        flat = np.array([g.reshape(-1) for g in gens])
        assert np.linalg.matrix_rank(flat) == d * d - 1
        for g in gens:
            assert abs(np.trace(g)) < 1e-14
            assert_allclose(g, g.conj().T, atol=1e-14)


def test_haar_unitary_is_unitary_and_seeded():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        u = haar_unitary(d, rng)
        assert_allclose(u @ u.conj().T, np.eye(d), atol=1e-12)
    a = haar_unitary(3, np.random.default_rng(42))
    b = haar_unitary(3, np.random.default_rng(42))
    assert_allclose(a, b)


# --------------------------------------------------------------------------- #
# basis construction                                                           #
# --------------------------------------------------------------------------- #

class TestBuildBasis:
    @pytest.mark.parametrize("n,d", sorted(EXPECTED_DIMENSIONS))
    def test_dimension(self, n, d, basis_cache):
        assert basis_cache(n, d).dimension == EXPECTED_DIMENSIONS[(n, d)]

    @pytest.mark.parametrize("n,d", [(3, 2), (5, 2), (4, 3)])
    def test_empty_for_non_divisible(self, n, d):
        basis = build_singlet_basis(SystemShape(n, d))
        assert basis.dimension == 0
        assert len(basis) == 0

    def test_orthonormal(self, basis_cache):
        for key in [(4, 2), (6, 2), (6, 3)]:
            basis = basis_cache(*key)
            assert_allclose(basis.gram(), np.eye(basis.dimension), atol=1e-12)

    def test_members_are_canonical_singlet_states(self, basis_cache):
        for key in [(2, 2), (4, 2), (6, 2), (3, 3), (6, 3)]:
            for member in basis_cache(*key):
                assert member.is_normalized()
                assert member.has_uniform_support()
                lead = member.amplitude(member.support()[0])
                assert lead.real > 0 and abs(lead.imag) < 1e-12

    def test_pair_shape_recovers_fixture(self, basis_cache, bell):
        (member,) = basis_cache(2, 2).states
        assert member.distance(bell) < 1e-12

    def test_qutrit_shape_recovers_fixture(self, basis_cache, qutrit):
        (member,) = basis_cache(3, 3).states
        assert member.distance(qutrit) < 1e-12

    @pytest.mark.parametrize("n,d", [(4, 2), (6, 2), (6, 3)])
    def test_against_dense_kernel_oracle(self, n, d, basis_cache):
        shape = SystemShape(n, d)
        kernel = dense_invariant_kernel(shape)
        basis = basis_cache(n, d)
        assert kernel.shape[0] == basis.dimension
        for member in basis:
            vec = member.to_dense()
            residual = vec - kernel.T @ (kernel.conj() @ vec)
            assert np.linalg.norm(residual) < 1e-9

    def test_rebuild_is_deterministic(self):
        a = build_singlet_basis(SystemShape(4, 2))
        b = build_singlet_basis(SystemShape(4, 2))
        for x, y in zip(a, b):
            assert x == y

    def test_absurd_tolerance_trips_rank_guard(self):
        with pytest.raises(SubspaceRankError):
            build_singlet_basis(SystemShape(2, 2), tol=1e30)

    @pytest.mark.parametrize("n,d", [(8, 2), (6, 3)])
    def test_matches_pinned_basis(self, n, d, basis_cache):
        """The files were written by an SVD null-space construction of the same basis."""
        pinned = load_basis(os.path.join(DATA_DIR, f"basis_{n}_{d}.json"))
        basis = basis_cache(n, d)
        assert basis.dimension == pinned.dimension
        for member, reference in zip(basis, pinned):
            assert member.support() == reference.support()
            assert_allclose(member.values, reference.values, rtol=0, atol=1e-12)

    def test_oversized_shape_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(MemoryError, match="support 137846528820"):
            build_singlet_basis(SystemShape(40, 2))
        assert time.perf_counter() - start < 1.0

    def test_sample_and_combine(self, basis_cache):
        basis = basis_cache(6, 2)
        states = basis.sample(5, seed=3)
        again = basis.sample(5, seed=3)
        assert states == again
        for state in states:
            assert state.is_normalized()
            # membership: expanding in the basis reproduces the state
            coeffs = [m.overlap(state) for m in basis]
            rebuilt = basis.combine(coeffs)
            assert rebuilt.distance(state) < 1e-12


@pytest.mark.parametrize("n,d,dimension", [(9, 3, 42), (8, 4, 14)])
def test_large_qutrit_and_ququart_shapes(n, d, dimension, basis_cache):
    """The ROADMAP ladder's two largest shapes with d >= 3."""
    shape = SystemShape(n, d)
    basis = basis_cache(n, d)
    assert basis.dimension == expected_dimension(shape) == dimension
    assert_allclose(basis.gram(), np.eye(dimension), atol=1e-12)
    tag = "signum" if (n // d) % 2 else "trivial"
    for member in basis:
        assert verify_invariance(member, samples=5, seed=3) < 1e-10
        for perm in all_label_permutations(d):
            assert check_sign_relation(member, perm, tag)


# --------------------------------------------------------------------------- #
# invariance and the phase function                                            #
# --------------------------------------------------------------------------- #

class TestInvariance:
    def test_residual_small_for_members(self, basis_cache):
        for key in [(2, 2), (4, 2), (6, 2), (3, 3), (6, 3)]:
            for member in basis_cache(*key):
                assert verify_invariance(member, samples=10, seed=1) < 1e-12

    def test_residual_small_for_random_combinations(self, basis_cache):
        for key in [(4, 2), (6, 2)]:
            for state in basis_cache(*key).sample(5, seed=9):
                assert verify_invariance(state, samples=10, seed=2) < 1e-12

    def test_residual_large_for_non_singlets(self):
        product = PureState(SystemShape(4, 2), {(0, 0, 1, 1): 1.0})
        assert verify_invariance(product, samples=10, seed=0) > 0.1
        rng = np.random.default_rng(4)
        generic = random_dense_state(SystemShape(4, 2), rng)
        assert verify_invariance(generic, samples=10, seed=0) > 0.01

    def test_requires_normalized_input(self, bell):
        with pytest.raises(ValueError):
            verify_invariance(bell.scaled(3.0))

    @pytest.mark.parametrize("n,d", [(2, 2), (4, 2), (6, 2), (3, 3), (6, 3)])
    def test_determinant_power_covariance(self, n, d, basis_cache):
        """The defining identity: U applied on every site scales by det(U)^K."""
        shape = SystemShape(n, d)
        rng = np.random.default_rng(100 + n + d)
        for member in basis_cache(n, d):
            for _ in range(3):
                u = haar_unitary(d, rng)
                moved = apply_local(member, LocalOperator.unitary(u))
                phase = np.linalg.det(u) ** (n // d)
                expect = member.to_dense() * phase
                assert_allclose(moved.to_dense(), expect, atol=1e-11)


class TestPhaseFunction:
    def test_pair_state_is_signum(self, bell):
        report = extract_phase_function(bell, seed=0)
        assert report.permutation_phase == "signum"
        assert report.det_power == 1
        assert report.residual < 1e-9

    def test_qutrit_state_is_signum(self, qutrit):
        report = extract_phase_function(qutrit, seed=0)
        assert report.permutation_phase == "signum"
        assert report.det_power == 1

    def test_four_qubit_state_is_trivial(self, four_qubit):
        report = extract_phase_function(four_qubit, seed=0)
        assert report.permutation_phase == "trivial"
        assert report.det_power == 2

    def test_parity_matches_copy_count(self, basis_cache):
        # K odd -> signum, K even -> trivial
        for (n, d), tag in [((6, 2), "signum"), ((6, 3), "trivial")]:
            for state in basis_cache(n, d).sample(3, seed=5):
                report = extract_phase_function(state, seed=1)
                assert report.permutation_phase == tag
                assert report.det_power == n // d

    def test_rejects_non_singlet(self):
        product = PureState(SystemShape(4, 2), {(0, 0, 1, 1): 1.0})
        with pytest.raises(PhaseFunctionError):
            extract_phase_function(product)

    def test_nine_bell_pairs_keep_det_power_principal(self):
        """K = 9 copies: a fixed determinant angle of 0.35 would wrap 9*0.35 past pi."""
        amps = {}
        for flips in itertools.product([False, True], repeat=9):
            index = sum(((1, 0) if flip else (0, 1) for flip in flips), ())
            amps[index] = (-1) ** sum(flips) / 2**4.5
        state = PureState(SystemShape(18, 2), amps)
        assert state.has_uniform_support()
        report = extract_phase_function(state, samples=4, seed=0)
        assert report.permutation_phase == "signum"
        assert report.det_power == 9

    def test_rejects_unnormalized(self, bell):
        with pytest.raises(ValueError):
            extract_phase_function(bell.scaled(0.5))

    @pytest.mark.parametrize(
        "n,d", [(4, 2), (6, 2), (8, 2), (10, 2), (12, 2), (6, 3), (9, 3), (8, 4)]
    )
    def test_ladder_first_member(self, n, d, basis_cache):
        """Every ladder shape: det power K, and signum exactly when K is odd."""
        copies = n // d
        report = extract_phase_function(basis_cache(n, d)[0], samples=8)
        assert report.det_power == copies
        assert report.permutation_phase == ("signum" if copies % 2 else "trivial")
        assert report.residual <= 1e-12

    @pytest.mark.parametrize("n,d", [(4, 2), (6, 3), (8, 4)])
    def test_rejects_label_symmetric_non_singlet(self, n, d):
        """sum_l |l...l> passes every transposition with sign +1 but is not covariant."""
        ghz = PureState(SystemShape(n, d), {(label,) * n: 1.0 for label in range(d)}).normalized()
        with pytest.raises(PhaseFunctionError, match="not phase-covariant"):
            extract_phase_function(ghz)


class TestDenseMemoryGuard:
    """verify_invariance and extract_phase_function refuse a dense vector that cannot fit."""

    @pytest.mark.parametrize("measure", [verify_invariance, extract_phase_function])
    def test_refuses_above_the_limit(self, measure, address_space_cap, four_qubit):
        # Four complex vectors of 2**4 entries need 1024 bytes.
        address_space_cap(1023)
        with pytest.raises(MemoryError, match=r"n=4 sites with d=2 levels .* GiB"):
            measure(four_qubit)
        address_space_cap(1024)
        measure(four_qubit)


class TestSignRelation:
    def test_all_label_permutations_enumerates_group(self):
        perms = list(all_label_permutations(3))
        assert len(perms) == 6
        assert sorted(perms) == sorted(itertools.permutations(range(3)))

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 3), (4, 2), (6, 2), (6, 3)])
    def test_holds_for_basis_members(self, n, d, basis_cache):
        basis = basis_cache(n, d)
        tag = "signum" if (n // d) % 2 else "trivial"
        for member in basis:
            for perm in all_label_permutations(d):
                assert check_sign_relation(member, perm, tag)

    def test_wrong_tag_fails_on_odd_permutation(self, bell):
        assert not check_sign_relation(bell, (1, 0), "trivial")
        assert check_sign_relation(bell, (1, 0), "signum")

    def test_non_singlet_fails(self):
        lopsided = PureState(
            SystemShape(2, 2), {(0, 1): np.sqrt(0.9), (1, 0): np.sqrt(0.1)}
        )
        assert not check_sign_relation(lopsided, (1, 0), "signum")
        assert not check_sign_relation(lopsided, (1, 0), "trivial")
