"""``verify``'s basis checks on the basis matrix against the per-member loop.

``verify_certificate_numerically`` checks every member's invariance in
one dense block per chunk of members, with four Haar unitaries shared by
all of them, and draws its trials straight into amplitude rows on the
basis support.  The per-member loop is kept here as the reference: one
``verify_invariance`` per member with the same seed, and trials drawn as
``basis.random_state`` states.
"""

import numpy as np
import pytest

from singletlab import (
    CertificateViolationError,
    PureState,
    SingletBasis,
    joint_amplitudes,
    verify_certificate_numerically,
)
from singletlab import nogo, singlet
from singletlab.singlet import _invariance_residuals, _random_amplitudes, verify_invariance

from conftest import random_balanced_state

LADDER = [(4, 2), (6, 2), (8, 2), (10, 2), (12, 2), (6, 3), (9, 3), (8, 4)]
CORRUPTED = [(6, 2), (8, 2), (6, 3), (8, 4)]
TOL = 1e-9
LIMIT = max(TOL, 1e-12) * 100


def orthogonal_impostor(genuine, seed):
    """A balanced, non-invariant unit state orthogonal to every genuine member."""
    impostor = random_balanced_state(genuine.shape, np.random.default_rng(seed))
    _, amps = joint_amplitudes((impostor,) + genuine.states)
    vector = amps[0] - amps[1:].T @ (amps[1:].conj() @ amps[0])
    return dict(zip(impostor.support(), vector / np.linalg.norm(vector)))


def with_member(genuine, position, amplitudes):
    """``genuine`` with a member of ``amplitudes`` inserted at ``position``."""
    states = list(genuine.states)
    states.insert(position, PureState(genuine.shape, amplitudes))
    return SingletBasis(shape=genuine.shape, tolerance=genuine.tolerance, states=states)


def loop_invariance_failure(basis, seed):
    """First failure message of the per-member loop, or None when every member passes."""
    for position, member in enumerate(basis):
        residual = verify_invariance(member, samples=4, seed=seed)
        if residual > LIMIT:
            return (
                f"basis member {position} is not collectively invariant "
                f"(residual {residual:.3e})"
            )
    return None


def block_residuals(basis, seed):
    return _invariance_residuals(basis.shape, basis.support, basis.amplitudes, 4, seed)


@pytest.mark.parametrize("n,d", CORRUPTED)
def test_genuine_residuals_match_the_loop_for_any_chunk(basis_cache, monkeypatch, n, d):
    basis = basis_cache(n, d)
    for seed in (0, 3):
        loop = np.array([verify_invariance(member, samples=4, seed=seed) for member in basis])
        block = block_residuals(basis, seed)
        assert np.all(np.abs(block - loop) <= 1e-14)
        assert block.max() <= LIMIT / 1000
        with monkeypatch.context() as patch:
            patch.setattr(singlet, "_INVARIANCE_BYTES", 1)
            assert np.array_equal(block_residuals(basis, seed), block)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("n,d", CORRUPTED)
def test_impostor_fails_with_the_loops_message(basis_cache, monkeypatch, n, d, where):
    genuine = basis_cache(n, d)
    position = {"first": 0, "middle": len(genuine) // 2, "last": len(genuine)}[where]
    basis = with_member(genuine, position, orthogonal_impostor(genuine, seed=7))
    expected = loop_invariance_failure(basis, seed=2)
    assert expected is not None and expected.startswith(f"basis member {position} ")
    for budget in (singlet._INVARIANCE_BYTES, 1):
        monkeypatch.setattr(singlet, "_INVARIANCE_BYTES", budget)
        with pytest.raises(CertificateViolationError) as caught:
            verify_certificate_numerically(basis, trials=3, seed=2, tol=TOL)
        assert str(caught.value) == expected


@pytest.mark.parametrize("n,d", [(6, 2), (6, 3)])
def test_the_invariance_limit_is_unchanged(basis_cache, n, d):
    genuine = basis_cache(n, d)
    position = len(genuine) // 2
    noise = orthogonal_impostor(genuine, seed=5)

    def tilted(eps):
        member = dict(genuine[position].amplitudes)
        for index, value in noise.items():
            member[index] = member.get(index, 0.0) + eps * value
        scale = np.sqrt(1 + eps * eps)
        states = list(genuine.states)
        states[position] = PureState(genuine.shape, {k: v / scale for k, v in member.items()})
        return SingletBasis(shape=genuine.shape, tolerance=genuine.tolerance, states=states)

    # The residual is linear in a small tilt; scale one probe to the targets.
    probe = block_residuals(tilted(1e-6), seed=0)[position]
    for factor in (10.0, 0.1):
        basis = tilted(1e-6 * factor * LIMIT / probe)
        residual = block_residuals(basis, seed=0)[position]
        assert factor / 2 < residual / LIMIT < factor * 2
        try:
            verify_certificate_numerically(basis, trials=2, seed=0, tol=TOL)
            message = None
        except CertificateViolationError as exc:
            message = str(exc)
        if factor > 1:
            assert message == loop_invariance_failure(basis, seed=0)
            assert message.startswith(f"basis member {position} is not collectively invariant")
        else:
            # Past the invariance check, only a trial may still notice the tilt.
            assert message is None or message.startswith("trial ")


def place(basis, state):
    """``state``'s amplitudes on ``basis.support``."""
    rows = {index: row for row, index in enumerate(map(tuple, basis.support.tolist()))}
    placed = np.zeros(len(basis.support), dtype=complex)
    placed[[rows[index] for index in state.support()]] = state.values
    return placed


@pytest.mark.parametrize("n,d", LADDER)
def test_trial_rows_are_random_states_on_the_support(basis_cache, n, d):
    basis = basis_cache(n, d)
    r = basis.dimension
    for seed in range(3):
        drawn, states, combined = (np.random.default_rng(seed) for _ in range(3))
        for _ in range(3):
            kept, values = _random_amplitudes(basis.amplitudes, drawn)
            row = np.zeros(len(basis.support), dtype=complex)
            row[kept] = values
            assert np.array_equal(row, place(basis, basis.random_state(states)))
            # The rule itself: unit Gaussian coefficients, combined and normalized.
            coeffs = combined.standard_normal(r) + 1j * combined.standard_normal(r)
            coeffs /= np.linalg.norm(coeffs)
            assert np.array_equal(row, place(basis, basis.combine(coeffs).normalized()))


def padded(basis):
    """``basis`` with an unbalanced support row that no member stores, in front."""
    support = np.vstack([np.zeros((1, basis.shape.n), basis.support.dtype), basis.support])
    amplitudes = np.hstack([np.zeros((basis.dimension, 1)), basis.amplitudes])
    return SingletBasis._from_arrays(basis.shape, basis.tolerance, support, amplitudes)


@pytest.mark.parametrize("n,d,pad", [(6, 2, False), (8, 2, False), (6, 3, False), (6, 2, True)])
def test_replayed_rows_are_the_joint_amplitudes_of_random_states(
    basis_cache, monkeypatch, n, d, pad
):
    basis = padded(basis_cache(n, d)) if pad else basis_cache(n, d)
    seen = []
    replay = nogo._replay_sums

    def spy(digits, amps, d):
        seen.append((digits, amps))
        return replay(digits, amps, d)

    monkeypatch.setattr(nogo, "_replay_sums", spy)
    monkeypatch.setattr(nogo, "_replay_batch", lambda basis, trials: 2)
    verify_certificate_numerically(basis, trials=5, seed=4)
    rng = np.random.default_rng(4)
    states = [basis.random_state(rng) for _ in range(5)]
    assert [len(amps) for _, amps in seen] == [2, 2, 1]
    for (digits, amps), first in zip(seen, range(0, 5, 2)):
        expected_digits, expected_amps = joint_amplitudes(states[first : first + 2])
        assert np.array_equal(digits, expected_digits)
        assert np.array_equal(amps, expected_amps)


@pytest.mark.parametrize(
    "member", [{}, {(0, 0, 0, 0): 1.0}, {(0, 1, 0, 1): 0.6, (1, 1, 0, 1): 0.8}],
    ids=["empty", "unbalanced", "one-unbalanced-row"],
)
def test_unbalanced_members_are_named_before_any_other_check(basis_cache, member):
    basis = with_member(basis_cache(4, 2), 1, member)
    with pytest.raises(CertificateViolationError, match="^basis member 1 does not have balanced"):
        verify_certificate_numerically(basis, trials=2, seed=0)
