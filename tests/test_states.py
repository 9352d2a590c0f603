"""Tests for the sparse state container and local/collective operations."""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from singletlab import (
    LocalOperator,
    PureState,
    SupportProfile,
    SystemShape,
    apply_local,
    cross_marginal,
    enumerate_support,
    haar_unitary,
    joint_amplitudes,
    partial_trace,
    permutation_sign,
    permute_particles,
    superpose,
)
from singletlab.states import _canonical_phase, _local_image

from conftest import (
    dense_marginal,
    dense_uniform_deviation,
    kron_chain,
    random_dense_state,
    tensordot_local_image,
)
from reference import apply_collective, standard_traceless_generators


class TestSystemShape:
    def test_basic_quantities(self):
        shape = SystemShape(6, 2)
        assert shape.total_dimension == 64
        assert shape.divisible
        assert shape.copies == 3

    def test_non_divisible(self):
        shape = SystemShape(5, 2)
        assert not shape.divisible
        with pytest.raises(ValueError):
            shape.copies

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            SystemShape(0, 2)
        with pytest.raises(ValueError):
            SystemShape(3, 0)

    def test_validate_index(self):
        shape = SystemShape(3, 2)
        shape.validate_index((0, 1, 1))
        with pytest.raises(ValueError):
            shape.validate_index((0, 1))
        with pytest.raises(ValueError):
            shape.validate_index((0, 1, 2))


class TestSupportProfile:
    def test_of_index(self):
        profile = SupportProfile.of_index((0, 1, 1, 0), 2)
        assert profile.counts == (2, 2)
        assert profile.is_uniform()

    def test_uniform_requires_divisibility(self):
        assert SupportProfile.uniform(SystemShape(4, 2)).counts == (2, 2)
        with pytest.raises(ValueError):
            SupportProfile.uniform(SystemShape(5, 2))

    def test_size_is_multinomial(self):
        # 6!/(3!·3!) strings of three 0s and three 1s
        profile = SupportProfile((3, 3))
        assert profile.size() == 20
        assert profile.total == 6

    def test_enumerate_matches_size_and_order(self):
        shape = SystemShape(4, 3)
        for counts in [(2, 1, 1), (1, 2, 1), (0, 2, 2)]:
            profile = SupportProfile(counts)
            indices = enumerate_support(shape, profile)
            assert len(indices) == profile.size()
            assert indices == sorted(indices)
            for idx in indices:
                assert SupportProfile.of_index(idx, 3).counts == counts

    def test_two_site_example(self):
        indices = enumerate_support(SystemShape(2, 2), SupportProfile((1, 1)))
        assert indices == [(0, 1), (1, 0)]


def listed_canonical_phase(values):
    """Reference: one Python complex division per entry."""
    if not values.size or (values[0].imag == 0.0 and values[0].real > 0.0):
        return values
    lead = complex(values[0])
    phase = lead / abs(lead)
    values = np.array([value / phase for value in values.tolist()])
    values[0] = abs(lead)
    return values


class TestCanonicalPhase:
    """The vectorized division keeps the bits of Python's ``value / phase``."""

    @staticmethod
    def assert_same_bits(values):
        expected = listed_canonical_phase(values.copy())
        actual = _canonical_phase(values.copy())
        assert actual.dtype == expected.dtype == complex
        assert np.array_equal(actual.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize(
        "lead",
        [
            0.3 + 0.1j,  # |re| >= |im|
            -0.1 + 0.3j,  # |im| > |re|
            0.2 - 0.2j,  # a tie takes the real branch
            -0.7 + 0j,
            complex(-0.7, -0.0),
            complex(-0.0, 0.4),
            complex(0.0, -0.4),
            0.5 + 0j,  # already canonical
        ],
    )
    def test_matches_python_division(self, lead):
        rng = np.random.default_rng(7)
        for size in [1, 2, 17, 924]:
            values = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            values[0] = lead
            self.assert_same_bits(values)

    def test_signed_zero_parts(self):
        rng = np.random.default_rng(8)
        for lead in [0.6 - 0.8j, -0.8 + 0.6j, -1.0 + 0j]:
            values = rng.standard_normal(40) + 1j * rng.standard_normal(40)
            values.real[1::3] = -0.0
            values.imag[2::3] = -0.0
            values.real[3::5] = 0.0
            values.imag[4::5] = 0.0
            values[0] = lead
            self.assert_same_bits(values)

    def test_random_vectors(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            size = int(rng.integers(1, 60))
            values = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            self.assert_same_bits(values * 10.0 ** rng.integers(-150, 150))


class TestPureState:
    def test_canonical_phase_is_lex_leading_positive(self):
        state = PureState(SystemShape(2, 2), {(0, 1): -0.5j, (1, 0): 0.5j})
        lead = state.amplitude((0, 1))
        assert lead.imag == pytest.approx(0.0, abs=1e-15)
        assert lead.real > 0

    def test_exact_zero_amplitudes_dropped(self):
        state = PureState(SystemShape(2, 2), {(0, 1): 1.0, (1, 0): 0.0})
        assert state.support() == [(0, 1)]

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            PureState(SystemShape(2, 2), {(0, 2): 1.0})
        with pytest.raises(ValueError):
            PureState(SystemShape(2, 2), {(0, 1, 0): 1.0})

    def test_norm_and_normalized(self):
        state = PureState(SystemShape(2, 2), {(0, 1): 3.0, (1, 0): 4.0})
        assert state.norm() == pytest.approx(5.0)
        assert state.normalized().is_normalized()

    def test_normalizing_null_state_fails(self):
        null = PureState(SystemShape(2, 2), {})
        assert null.norm() == 0.0
        with pytest.raises(ValueError):
            null.normalized()

    def test_overlap_sesquilinear(self, bell):
        rotated = bell.scaled(1j)
        assert bell.overlap(rotated) == pytest.approx(1j)
        assert rotated.overlap(bell) == pytest.approx(-1j)
        assert rotated.norm() == pytest.approx(1.0)

    def test_overlap_against_dense(self):
        rng = np.random.default_rng(7)
        shape = SystemShape(3, 3)
        for _ in range(25):
            a = random_dense_state(shape, rng)
            b = random_dense_state(shape, rng)
            expected = np.vdot(a.to_dense(), b.to_dense())
            assert a.overlap(b) == pytest.approx(expected, abs=1e-12)

    def test_dense_round_trip(self):
        rng = np.random.default_rng(11)
        for shape in [SystemShape(2, 2), SystemShape(4, 2), SystemShape(3, 3)]:
            for _ in range(10):
                state = random_dense_state(shape, rng)
                back = PureState.from_dense(shape, state.to_dense())
                assert state.distance(back) < 1e-14

    def test_equality_and_hash(self, bell):
        twin = PureState(bell.shape, dict(bell.amplitudes), canonicalize=False)
        assert twin == bell
        assert hash(twin) == hash(bell)
        assert twin != bell.scaled(-1.0)

    def test_missing_amplitude_is_zero(self, bell):
        assert bell.amplitude((0, 0)) == 0.0

    def test_uniform_support_flag(self, bell, four_qubit):
        assert bell.has_uniform_support()
        assert four_qubit.has_uniform_support()
        assert not PureState(SystemShape(2, 2), {(0, 0): 1.0}).has_uniform_support()


class TestLocalOperator:
    def test_unitary_accepts_haar_samples(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 4):
            op = LocalOperator.unitary(haar_unitary(d, rng))
            assert op.kind == "general-unitary"

    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            LocalOperator.unitary(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_unitary_rejects_a_nan_matrix(self):
        with pytest.raises(ValueError, match="matrix is not unitary"):
            LocalOperator.unitary(np.full((2, 2), np.nan))

    def test_unitary_rejects_an_infinite_entry(self):
        matrix = np.eye(2, dtype=complex)
        matrix[0, 1] = np.inf
        with pytest.raises(ValueError, match="matrix is not unitary"):
            LocalOperator.unitary(matrix)

    def test_basis_permutation_matrix(self):
        op = LocalOperator.basis_permutation([1, 2, 0])
        target = np.zeros((3, 3))
        for src, dst in enumerate([1, 2, 0]):
            target[dst, src] = 1.0
        assert_allclose(op.matrix, target)

    def test_diagonal_phase(self):
        op = LocalOperator.diagonal_phase([0.0, np.pi])
        assert_allclose(op.matrix, np.diag([1.0, -1.0]), atol=1e-15)


def test_permutation_sign_known_values():
    assert permutation_sign((0, 1, 2)) == 1
    assert permutation_sign((1, 0, 2)) == -1
    assert permutation_sign((1, 2, 0)) == 1
    assert permutation_sign((3, 2, 1, 0)) == 1


def test_permutation_sign_is_multiplicative():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = tuple(rng.permutation(5))
        b = tuple(rng.permutation(5))
        composed = tuple(a[b[i]] for i in range(5))
        assert permutation_sign(composed) == permutation_sign(a) * permutation_sign(b)


class TestApplyLocal:
    def test_general_unitary_matches_dense_kron(self):
        rng = np.random.default_rng(13)
        shape = SystemShape(3, 2)
        for _ in range(20):
            state = random_dense_state(shape, rng)
            u = haar_unitary(2, rng)
            moved = apply_local(state, LocalOperator.unitary(u))
            expected = kron_chain([u] * 3) @ state.to_dense()
            assert_allclose(moved.to_dense(), expected, atol=1e-12)

    def test_permutation_path_matches_general_path(self):
        rng = np.random.default_rng(17)
        shape = SystemShape(4, 3)
        mapping = [2, 0, 1]
        perm_op = LocalOperator.basis_permutation(mapping)
        dense_op = LocalOperator.unitary(perm_op.matrix)
        for _ in range(10):
            state = random_dense_state(shape, rng)
            assert apply_local(state, perm_op).distance(apply_local(state, dense_op)) < 1e-12

    def test_diagonal_path_matches_general_path(self):
        rng = np.random.default_rng(19)
        shape = SystemShape(3, 3)
        angles = [0.3, -1.2, 2.5]
        diag_op = LocalOperator.diagonal_phase(angles)
        dense_op = LocalOperator.unitary(diag_op.matrix)
        for _ in range(10):
            state = random_dense_state(shape, rng)
            assert apply_local(state, diag_op).distance(apply_local(state, dense_op)) < 1e-12

    def test_unitary_preserves_norm(self):
        rng = np.random.default_rng(23)
        state = random_dense_state(SystemShape(4, 2), rng)
        moved = apply_local(state, LocalOperator.unitary(haar_unitary(2, rng)))
        assert moved.norm() == pytest.approx(1.0, abs=1e-12)

    def test_no_phase_canonicalization(self, bell):
        """A collective global phase must survive, not be folded away."""
        op = LocalOperator.diagonal_phase([0.7, 0.7])
        rotated = apply_local(bell, op)
        assert bell.overlap(rotated) == pytest.approx(np.exp(1.4j))


class TestLocalImage:
    SHAPES = [(n, d) for d in (1, 2, 3) for n in range(1, 8) if d**n <= 729]

    @pytest.mark.parametrize("n,d", SHAPES)
    def test_matches_tensordot_contraction(self, n, d):
        rng = np.random.default_rng(31 + 10 * n + d)
        vector = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
        vector /= np.linalg.norm(vector)
        gauss = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        # A non-unitary contraction, so every image entry stays below 1 in modulus.
        for matrix in (haar_unitary(d, rng), gauss / np.linalg.norm(gauss, 2)):
            got = _local_image(vector, matrix, n, d)
            expected = tensordot_local_image(vector, matrix, n, d)
            assert got.shape == (d**n,)
            assert np.abs(got - expected).max() <= 1e-13


class TestDenseMemoryGuard:
    def test_dense_branch_refuses_before_allocating(self, address_space_cap):
        state = PureState(SystemShape(6, 2), {(0, 1) * 3: 1.0})
        # The image and its digit rows take 16 (n + 5) = 176 bytes per entry of 2**6.
        address_space_cap(11263)
        op = LocalOperator.unitary(haar_unitary(2, np.random.default_rng(41)))
        with pytest.raises(MemoryError, match=r"n=6 sites with d=2 levels .* GiB"):
            apply_local(state, op)
        address_space_cap(11264)
        assert apply_local(state, op).norm() == pytest.approx(1.0, abs=1e-12)

    def test_exact_branches_need_no_dense_vector(self, address_space_cap):
        state = PureState(SystemShape(40, 2), {(0, 1) * 20: 1.0})
        address_space_cap(1)
        swapped = apply_local(state, LocalOperator.basis_permutation([1, 0]))
        assert swapped.support() == [(1, 0) * 20]
        phased = apply_local(state, LocalOperator.diagonal_phase([0.0, 0.1]))
        assert phased.values[0] == pytest.approx(np.exp(2.0j))


class TestPermuteParticles:
    def test_matches_dense_transpose(self):
        rng = np.random.default_rng(29)
        shape = SystemShape(4, 2)
        for _ in range(15):
            state = random_dense_state(shape, rng)
            omega = tuple(rng.permutation(4))
            moved = permute_particles(state, omega)
            tensor = state.to_dense().reshape((2,) * 4)
            expected = np.transpose(tensor, omega).reshape(-1)
            assert_allclose(moved.to_dense(), expected, atol=1e-14)

    def test_identity_and_inverse(self):
        rng = np.random.default_rng(31)
        state = random_dense_state(SystemShape(3, 3), rng)
        omega = (2, 0, 1)
        inverse = tuple(np.argsort(omega))
        assert permute_particles(state, (0, 1, 2)) == state
        assert permute_particles(permute_particles(state, omega), inverse).distance(state) < 1e-14

    def test_swap_flips_pair_singlet(self, bell):
        swapped = permute_particles(bell, (1, 0))
        assert swapped.overlap(bell) == pytest.approx(-1.0)

    def test_rejects_non_permutation(self, bell):
        with pytest.raises(ValueError):
            permute_particles(bell, (0, 0))


class TestApplyCollective:
    def test_matches_sum_of_single_site_terms(self):
        rng = np.random.default_rng(37)
        shape = SystemShape(3, 2)
        gens = standard_traceless_generators(2)
        for _ in range(10):
            state = random_dense_state(shape, rng)
            g = gens[rng.integers(len(gens))]
            moved = apply_collective(state, g)
            expected = np.zeros(shape.total_dimension, dtype=complex)
            for site in range(3):
                ops = [np.eye(2)] * 3
                ops[site] = g
                expected += kron_chain(ops) @ state.to_dense()
            assert_allclose(moved.to_dense(), expected, atol=1e-12)


def test_superpose_matches_dense_combination():
    rng = np.random.default_rng(41)
    shape = SystemShape(3, 2)
    states = [random_dense_state(shape, rng) for _ in range(3)]
    coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    combo = superpose(coeffs, states, canonicalize=False)
    expected = sum(c * s.to_dense() for c, s in zip(coeffs, states))
    assert_allclose(combo.to_dense(), expected, atol=1e-13)


def test_joint_amplitudes_align_supports():
    shape = SystemShape(3, 2)
    a = PureState(shape, {(1, 1, 0): 2.0, (0, 0, 1): 1.0}, canonicalize=False)
    b = PureState(shape, {(1, 1, 0): 3.0j, (0, 1, 0): 4.0}, canonicalize=False)
    digits, amps = joint_amplitudes([a, b])
    assert digits.tolist() == [[0, 0, 1], [0, 1, 0], [1, 1, 0]]
    assert_allclose(amps, [[1.0, 0.0, 2.0], [0.0, 4.0, 3.0j]])
    assert a.digits.tolist() == [[0, 0, 1], [1, 1, 0]]
    with pytest.raises(ValueError):
        a.values[0] = 5.0  # the stored arrays are read-only


def test_superpose_rejects_mixed_shapes(bell, qutrit):
    with pytest.raises(ValueError):
        superpose([1.0, 1.0], [bell, qutrit])


class TestPartialTrace:
    def test_bell_single_site_is_maximally_mixed(self, bell):
        marginal = partial_trace(bell, {0})
        assert_allclose(marginal.matrix, np.eye(2) / 2, atol=1e-14)
        assert marginal.is_maximally_mixed()
        assert marginal.uniform_deviation() == pytest.approx(0.0, abs=1e-15)

    def test_matches_dense_oracle_on_random_states(self):
        rng = np.random.default_rng(43)
        for shape in [SystemShape(4, 2), SystemShape(3, 3), SystemShape(5, 2)]:
            for _ in range(20):
                state = random_dense_state(shape, rng)
                k = int(rng.integers(1, shape.n))
                sites = sorted(rng.choice(shape.n, size=k, replace=False).tolist())
                marginal = partial_trace(state, sites)
                assert_allclose(marginal.matrix, dense_marginal(state, sites), atol=1e-12)
                assert marginal.trace() == pytest.approx(1.0, abs=1e-12)
                assert marginal.hermiticity_defect() < 1e-13
                assert marginal.uniform_deviation() == pytest.approx(
                    dense_uniform_deviation(state, sites), abs=1e-12
                )

    def test_product_state_marginal_is_pure(self):
        state = PureState(SystemShape(3, 2), {(0, 1, 0): 1.0})
        marginal = partial_trace(state, {1})
        assert_allclose(marginal.matrix, np.diag([0.0, 1.0]), atol=1e-15)
        assert not marginal.is_maximally_mixed()

    def test_requires_normalized_state(self, bell):
        with pytest.raises(ValueError):
            partial_trace(bell.scaled(2.0), {0})

    def test_entry_accessor(self, four_qubit):
        marginal = partial_trace(four_qubit, {0, 1})
        assert marginal.entry((0, 0), (0, 0)) == pytest.approx(1 / 3)
        assert marginal.entry((0, 1), (1, 0)) == pytest.approx(1 / 6)

    def test_cross_marginal_diagonal_consistency(self, four_qubit):
        block = cross_marginal(four_qubit, four_qubit, [0, 1])
        assert_allclose(block, partial_trace(four_qubit, {0, 1}).matrix, atol=1e-14)

    def test_cross_marginal_full_trace_is_overlap(self):
        rng = np.random.default_rng(47)
        shape = SystemShape(3, 2)
        a = random_dense_state(shape, rng)
        b = random_dense_state(shape, rng)
        block = cross_marginal(a, b, [0, 1, 2])
        # Tr of |a><b| restricted to everything equals <b|a>
        assert np.trace(block) == pytest.approx(b.overlap(a), abs=1e-12)
