"""The certificate replay's batched pass against the per-trial loop it replaced.

``verify_certificate_numerically`` draws its trial states one by one,
exactly as before, then builds every trial's pair marginals in one
batched product per site pair.  The per-trial loop is kept here as the
reference: one ``partial_trace`` per pair and trial, its counting sum,
pair deficit and Werner form, checked in the same order.  Batched and
loop replays must agree bit for bit on the reported figures and fail at
the same trial with the same message.
"""

from itertools import combinations

import numpy as np
import pytest

from singletlab import (
    CertificateViolationError,
    PureState,
    SingletBasis,
    SystemShape,
    certify,
    counting_sum,
    joint_amplitudes,
    pair_deficit,
    partial_trace,
    verify_certificate_numerically,
)
from singletlab import nogo

from conftest import random_balanced_state

LADDER = [(4, 2), (6, 2), (8, 2), (10, 2), (12, 2), (6, 3), (9, 3), (8, 4)]


def loop_figures(basis, trials, seed, tol):
    """Per trial of the loop: its counting sum, pair deficit and Werner form."""
    n, d = basis.shape.n, basis.shape.d
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        state = basis.random_state(rng)
        marginals = [partial_trace(state, pair, tol) for pair in combinations(range(n), 2)]
        mass = sum(float(m.matrix.diagonal()[:: d + 1].real.sum()) for m in marginals)
        deficit = sum(m.uniform_deviation() for m in marginals)
        blocks = np.stack([m.matrix for m in marginals]).reshape(-1, d, d, d, d)
        s = np.einsum("pijji->p", blocks).real
        werner = float(np.sum((d * s**2 - 2 * s + d) / (d * (d * d - 1)) - 1.0 / d**2))
        yield mass, deficit, werner


def loop_replay_failure(basis, trials, seed, tol):
    """First failure message of the per-trial loop, or None when every trial passes."""
    certificate = certify(basis.shape)
    actual, floor = float(certificate.actual), float(certificate.deficit_floor)
    for trial, (mass, deficit, werner) in enumerate(loop_figures(basis, trials, seed, tol)):
        residual = abs(mass - actual)
        if residual > tol:
            return f"trial {trial}: counting sum off by {residual:.3e}"
        if deficit < floor - tol:
            return f"trial {trial}: pair deficit {deficit:.12g} below floor {floor:.12g}"
        if abs(deficit - werner) > tol:
            return (
                f"trial {trial}: pair deficit {deficit:.12g} differs from its "
                f"Werner form {werner:.12g}, so the state is not invariant"
            )
    return None


def batch_sizes(monkeypatch):
    """Record how many trials each batched pass replays."""
    sizes = []
    replay = nogo._replay_sums

    def spy(digits, amps, d):
        sizes.append(len(amps))
        return replay(digits, amps, d)

    monkeypatch.setattr(nogo, "_replay_sums", spy)
    return sizes


@pytest.mark.parametrize("n,d", LADDER)
def test_ladder_replay_equals_public_functions_exactly(basis_cache, n, d):
    basis = basis_cache(n, d)
    actual = float(certify(basis.shape).actual)
    for seed in range(3):
        check = verify_certificate_numerically(basis, trials=3, seed=seed)
        rng = np.random.default_rng(seed)
        states = [basis.random_state(rng) for _ in range(3)]
        assert check.min_pair_deficit == min(pair_deficit(state) for state in states)
        assert check.max_identity_residual == max(
            abs(counting_sum(state) - actual) for state in states
        )


@pytest.mark.parametrize("budget", [1, 30_000, 70_000])
@pytest.mark.parametrize("n,d", [(8, 2), (6, 3)])
def test_batches_give_the_same_check(basis_cache, monkeypatch, n, d, budget):
    basis = basis_cache(n, d)
    whole = verify_certificate_numerically(basis, trials=7, seed=5)
    sizes = batch_sizes(monkeypatch)
    monkeypatch.setattr(nogo, "_REPLAY_BYTES", budget)
    assert verify_certificate_numerically(basis, trials=7, seed=5) == whole
    assert len(sizes) > 1 and sum(sizes) == 7
    assert len(set(sizes[:-1])) <= 1 and sizes[-1] <= sizes[0]


def corrupted_basis(genuine, seed):
    """Genuine members plus one balanced, non-invariant member orthogonal to them."""
    impostor = random_balanced_state(genuine.shape, np.random.default_rng(seed))
    _, amps = joint_amplitudes((impostor,) + genuine.states)
    vector = amps[0] - amps[1:].T @ (amps[1:].conj() @ amps[0])
    orthogonal = PureState(
        genuine.shape, dict(zip(impostor.support(), vector / np.linalg.norm(vector)))
    )
    return SingletBasis(
        shape=genuine.shape, tolerance=genuine.tolerance, states=genuine.states + (orthogonal,)
    )


@pytest.mark.parametrize("batch", [1, 2, 5, 12])
@pytest.mark.parametrize("n,d", [(6, 2), (6, 3)])
def test_corrupted_basis_fails_at_the_same_trial_with_the_same_message(
    basis_cache, monkeypatch, n, d, batch
):
    monkeypatch.setattr(
        nogo,
        "_raising_residuals",
        lambda digits, rows, d: np.zeros(len(rows)),
    )
    basis = corrupted_basis(basis_cache(n, d), seed=3)
    # A tolerance just above the Werner gaps of the first three trials makes
    # the loop fail only after they have passed.
    gaps = [abs(deficit - werner) for _, deficit, werner in loop_figures(basis, 3, 0, 1e-9)]
    tol = max(gaps) * 1.0001
    expected = loop_replay_failure(basis, 12, 0, tol)
    assert expected is not None
    assert int(expected.split(":")[0].removeprefix("trial ")) >= 3
    monkeypatch.setattr(nogo, "_replay_batch", lambda basis, trials: batch)
    with pytest.raises(CertificateViolationError) as caught:
        verify_certificate_numerically(basis, trials=12, seed=0, tol=tol)
    assert str(caught.value) == expected


@pytest.mark.parametrize("n,d", [(4, 2), (8, 2)])
def test_counting_identity_failure_at_zero_tolerance_matches_the_loop(basis_cache, n, d):
    basis = basis_cache(n, d)
    expected = loop_replay_failure(basis, 20, 0, 0.0)
    assert expected is not None and "counting sum off by" in expected
    with pytest.raises(CertificateViolationError) as caught:
        verify_certificate_numerically(basis, trials=20, seed=0, tol=0.0)
    assert str(caught.value) == expected


def test_replay_memory_is_estimated_before_any_check(basis_cache, address_space_cap, monkeypatch):
    basis = basis_cache(8, 4)

    def unreachable(digits, rows, d):
        raise AssertionError("the invariance check ran before the replay estimate")

    monkeypatch.setattr(nogo, "_raising_residuals", unreachable)
    address_space_cap(1 << 20)
    with pytest.raises(MemoryError, match=r"n=8 sites with d=4 levels .* GiB"):
        verify_certificate_numerically(basis, trials=5, seed=0)


def test_non_divisible_shape_is_a_value_error():
    stray = PureState(SystemShape(3, 2), {(0, 0, 1): 1.0})
    basis = SingletBasis(shape=SystemShape(3, 2), tolerance=1e-9, states=(stray,))
    with pytest.raises(ValueError, match="d=2 does not divide n=3"):
        verify_certificate_numerically(basis, trials=2, seed=0)
