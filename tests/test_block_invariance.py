"""``verify``'s basis checks on the basis matrix against independent references.

``verify_certificate_numerically`` checks every member's invariance
exactly, a chunk of members at a time, as the norm of its images under
the collective raising operators ``E_a``, and draws its trials straight
into amplitude rows on the basis support.  The references kept here are
a dense oracle of ``E_a`` built from ``kron`` products, the per-member
Haar loop (one ``verify_invariance`` per member), and trials drawn as
``basis.sample`` states.
"""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from singletlab import (
    CertificateViolationError,
    PureState,
    SingletBasis,
    SystemShape,
    joint_amplitudes,
    permutation_sign,
    verify_certificate_numerically,
)
from singletlab import nogo
from singletlab.singlet import _complex_normal, _random_amplitudes, verify_invariance

from conftest import kron_chain, random_balanced_state

LADDER = [(4, 2), (6, 2), (8, 2), (10, 2), (12, 2), (6, 3), (9, 3), (8, 4)]
CORRUPTED = [(6, 2), (8, 2), (6, 3), (8, 4)]
TOL = 1e-9
LIMIT = max(TOL, 1e-12) * 100
PREFIX = "is not collectively invariant (residual "


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
    """First failure message of the per-member Haar loop, or None when every member passes."""
    for position, member in enumerate(basis):
        residual = verify_invariance(member, samples=4, seed=seed)
        if residual > LIMIT:
            return f"basis member {position} {PREFIX}{residual:.3e})"
    return None


def raising_residuals(basis):
    return nogo._raising_residuals(basis.support, basis.amplitudes, basis.shape.d)


def dense_raising_residual(state):
    """``(sum_a ||E_a psi||**2)**0.5`` with each ``E_a`` a dense sum of ``kron`` products."""
    n, d = state.shape.n, state.shape.d
    psi = state.to_dense()
    squares = 0.0
    for a in range(d - 1):
        raising = np.zeros((d, d))
        raising[a, a + 1] = 1.0
        operator = sum(
            kron_chain([raising if site == i else np.eye(d) for site in range(n)])
            for i in range(n)
        )
        squares += np.linalg.norm(operator @ psi) ** 2
    return np.sqrt(squares)


@pytest.mark.parametrize("n,d", [(2, 2), (4, 2), (6, 2), (3, 3), (6, 3), (4, 4)])
def test_residuals_match_the_dense_raising_oracle(basis_cache, n, d):
    genuine = basis_cache(n, d)
    rng = np.random.default_rng(n * d)
    states = [random_balanced_state(genuine.shape, rng) for _ in range(3)]
    states += [*genuine.states, PureState(genuine.shape, orthogonal_impostor(genuine, seed=1))]
    for state in states:
        got = nogo._raising_residuals(state.digits, state.values[None], d)
        assert got.shape == (1,)
        assert abs(got[0] - dense_raising_residual(state)) <= 1e-14


def determinant_product(columns, d):
    """Unnormalized product of ``d``-site determinant states, one per column of sites."""
    n = sum(len(column) for column in columns)
    amplitudes = {}
    for perms in itertools.product(itertools.permutations(range(d)), repeat=len(columns)):
        word = [0] * n
        for column, perm in zip(columns, perms):
            for site, label in zip(column, perm):
                word[site] = label
        amplitudes[tuple(word)] = float(np.prod([permutation_sign(p) for p in perms]))
    return PureState(SystemShape(n, d), amplitudes, canonicalize=False)


@pytest.mark.parametrize(
    "columns,d",
    [
        ([(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)], 2),
        ([(0, 5), (1, 2), (3, 4), (6, 9), (7, 8)], 2),
        ([(0, 1, 2), (3, 4, 5)], 3),
        ([(0, 4, 8), (1, 3, 6), (2, 5, 7)], 3),
        ([(0, 1, 2, 3), (4, 5, 6, 7)], 4),
        ([(0, 7, 2, 5), (1, 3, 4, 6)], 4),
    ],
)
def test_residual_is_exactly_zero_on_integer_determinant_products(columns, d):
    state = determinant_product(columns, d)
    assert set(np.abs(state.values).tolist()) == {1.0}
    assert nogo._raising_residuals(state.digits, state.values[None], d).tolist() == [0.0]


@pytest.mark.parametrize("n,d", LADDER)
def test_ladder_residuals_are_roundoff_for_any_chunk(basis_cache, monkeypatch, n, d):
    basis = basis_cache(n, d)
    residuals = raising_residuals(basis)
    assert residuals.max() <= LIMIT / 1000
    rows = [nogo._raising_residuals(basis.support, row[None], d)[0] for row in basis.amplitudes]
    assert residuals.tolist() == rows
    seen = []
    check = nogo._raising_residuals

    def spy(digits, rows, d):
        seen.append(check(digits, rows, d))
        return seen[-1]

    monkeypatch.setattr(nogo, "_raising_residuals", spy)
    whole = verify_certificate_numerically(basis, trials=2, seed=0, tol=TOL)
    monkeypatch.setattr(nogo, "_REPLAY_BYTES", 1)
    chunked = len(seen)
    assert verify_certificate_numerically(basis, trials=2, seed=0, tol=TOL) == whole
    assert len(seen) - chunked == basis.dimension
    assert np.concatenate(seen[:chunked]).tolist() == residuals.tolist()
    assert np.concatenate(seen[chunked:]).tolist() == residuals.tolist()


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("n,d", CORRUPTED)
def test_impostor_fails_with_the_loops_message(basis_cache, monkeypatch, n, d, where):
    genuine = basis_cache(n, d)
    position = {"first": 0, "middle": len(genuine) // 2, "last": len(genuine)}[where]
    basis = with_member(genuine, position, orthogonal_impostor(genuine, seed=7))
    expected = loop_invariance_failure(basis, seed=2)
    assert expected is not None and expected.startswith(f"basis member {position} {PREFIX}")
    for budget in (nogo._REPLAY_BYTES, 1):
        monkeypatch.setattr(nogo, "_REPLAY_BYTES", budget)
        with pytest.raises(CertificateViolationError) as caught:
            verify_certificate_numerically(basis, trials=3, seed=2, tol=TOL)
        residual = raising_residuals(basis)[position]
        assert str(caught.value) == f"basis member {position} {PREFIX}{residual:.3e})"


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
    probe = raising_residuals(tilted(1e-6))[position]
    for factor in (10.0, 0.1):
        basis = tilted(1e-6 * factor * LIMIT / probe)
        residual = raising_residuals(basis)[position]
        assert factor / 2 < residual / LIMIT < factor * 2
        try:
            verify_certificate_numerically(basis, trials=2, seed=0, tol=TOL)
            message = None
        except CertificateViolationError as exc:
            message = str(exc)
        if factor > 1:
            assert message == f"basis member {position} {PREFIX}{residual:.3e})"
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
        drawn, combined = random.Random(seed), random.Random(seed)
        for state in basis.sample(3, seed):
            kept, values = _random_amplitudes(basis.amplitudes, _complex_normal(drawn, r))
            row = np.zeros(len(basis.support), dtype=complex)
            row[kept] = values
            assert np.array_equal(row, place(basis, state))
            # The rule itself: unit Gaussian coefficients, combined and normalized.
            coeffs = _complex_normal(combined, r)
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
    states = basis.sample(5, 4)
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


def singlet_pairs_basis(n):
    """One-member basis of ``n // 2`` adjacent two-qubit singlets."""
    shape = SystemShape(n, 2)
    words = itertools.product([(0, 1), (1, 0)], repeat=n // 2)
    pairs = {sum(word, ()): (-1) ** sum(a for a, _ in word) * 2 ** (-n / 4) for word in words}
    return SingletBasis(shape, 1e-9, [PureState(shape, pairs)])


def product_basis_1100():
    """Two balanced, orthonormal product members on 1100 qubits, neither invariant."""
    shape = SystemShape(1100, 2)
    words = ((0, 1) * 550, (1, 0) * 550)
    return SingletBasis(shape, 1e-9, [PureState(shape, {word: 1.0}) for word in words])


class ReplayReached(Exception):
    pass


@pytest.mark.parametrize(
    "build,outcome",
    [
        (lambda: singlet_pairs_basis(24), ReplayReached),
        (product_basis_1100, CertificateViolationError),
    ],
    ids=["pairs-24", "products-1100"],
)
def test_raising_check_peak_stays_under_its_price(monkeypatch, build, outcome):
    # The old price, 18 n + 560 bytes per term for the sort data, was
    # 4.4 and 7.3 times these peaks.
    basis = build()

    def stop(*args):
        raise ReplayReached

    monkeypatch.setattr(nogo, "_random_amplitudes", stop)
    tracemalloc.start()
    try:
        with pytest.raises(outcome):
            verify_certificate_numerically(basis, trials=2, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    price = nogo._raising_chunk(basis)[1]
    assert peak <= price <= 3 * peak


def test_raising_terms_are_found_once_per_verify(basis_cache, monkeypatch):
    basis = basis_cache(8, 2)
    calls = []
    terms = nogo._raising_terms

    def counted(digits, d):
        calls.append(d)
        return terms(digits, d)

    monkeypatch.setattr(nogo, "_raising_terms", counted)
    monkeypatch.setattr(nogo, "_REPLAY_BYTES", 1)
    assert verify_certificate_numerically(basis, trials=2, seed=0).passed
    assert nogo._raising_chunk(basis)[0] == 1 < basis.dimension
    assert calls == [2]

