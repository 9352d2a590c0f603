"""Property tests for the shared marginal kernel behind every reduced density matrix.

``partial_trace`` and ``cross_marginal`` are checked against dense
reshape/transpose oracles on random shapes and supports, the certificate
replay's shared pair marginals against the public ``counting_sum`` and
``pair_deficit``, and a 70-qubit state whose dense vector could not be
allocated at all.
"""

import itertools
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from singletlab import (
    PureState,
    SystemShape,
    certify,
    counting_sum,
    cross_marginal,
    pair_deficit,
    partial_trace,
    state_from_dict,
    state_to_dict,
    verify_certificate_numerically,
)

from conftest import dense_marginal

SUPPORT_KINDS = ["sparse", "single", "full", "balanced"]


@st.composite
def shapes(draw):
    """Shapes with n <= 7 and d <= 3, capped at d**n <= 729 so that the
    dense oracle of a whole-system marginal stays a few megabytes."""
    d = draw(st.integers(2, 3))
    n = draw(st.integers(1, 7 if d == 2 else 6))
    return SystemShape(n, d)


def random_state(shape, kind, rng):
    """Normalized state on a support of the given kind, amplitudes from ``rng``."""
    every = list(itertools.product(range(shape.d), repeat=shape.n))
    if kind == "single":
        support = [every[rng.integers(len(every))]]
    elif kind == "full":
        support = every
    elif kind == "balanced" and shape.divisible:
        support = [idx for idx in every if all(idx.count(l) == shape.copies for l in range(shape.d))]
    else:
        # sparse and (generically) not balanced
        size = int(rng.integers(1, len(every) + 1))
        support = [every[i] for i in rng.choice(len(every), size=size, replace=False)]
    amps = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
    amps /= np.linalg.norm(amps)
    return PureState(shape, dict(zip(support, amps)), canonicalize=False)


def subsystems(n):
    """Nonempty subsets of ``0 .. n-1`` of every size up to ``n``."""
    return st.sets(st.integers(0, n - 1), min_size=1, max_size=n).map(sorted)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_partial_trace_matches_dense_oracle(data):
    shape = data.draw(shapes())
    kind = data.draw(st.sampled_from(SUPPORT_KINDS))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    state = random_state(shape, kind, rng)
    sites = data.draw(subsystems(shape.n))
    marginal = partial_trace(state, sites)
    assert marginal.sites == tuple(sites)
    assert_allclose(marginal.matrix, dense_marginal(state, sites), atol=1e-12)


def dense_cross_marginal(left, right, sites):
    """Oracle for ``Tr_B |left><right|`` from the two dense vectors."""
    shape = left.shape
    drop = [s for s in range(shape.n) if s not in sites]

    def block(state):
        tensor = state.to_dense().reshape((shape.d,) * shape.n)
        return np.transpose(tensor, list(sites) + drop).reshape(shape.d ** len(sites), -1)

    return block(left) @ block(right).conj().T


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cross_marginal_of_different_supports_matches_dense_oracle(data):
    shape = data.draw(shapes())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    states = [
        random_state(shape, data.draw(st.sampled_from(SUPPORT_KINDS)), rng) for _ in range(3)
    ]
    sites = data.draw(subsystems(shape.n))
    left, right = states[0], states[1]
    assert_allclose(
        cross_marginal(left, right, sites), dense_cross_marginal(left, right, sites), atol=1e-12
    )
    # the stacked form gives every block of the two families at once
    stacked = cross_marginal(states[:2], states, sites)
    assert stacked.shape[:2] == (2, 3)
    for j, k in itertools.product(range(2), range(3)):
        assert_allclose(
            stacked[j, k], dense_cross_marginal(states[j], states[k], sites), atol=1e-12
        )


@settings(max_examples=25, deadline=None)
@given(
    key=st.sampled_from([(4, 2), (6, 2), (6, 3)]),
    seed=st.integers(0, 2**16),
    trials=st.integers(1, 4),
)
def test_verify_shared_pair_marginals_match_public_functions(basis_cache, key, seed, trials):
    """The replay builds each trial's pair marginals once and reads both the
    counting sum and the pair deficit off them; both must equal what the
    public functions compute on the same trial states."""
    basis = basis_cache(*key)
    check = verify_certificate_numerically(basis, trials=trials, seed=seed)
    rng = np.random.default_rng(seed)
    states = [basis.random_state(rng) for _ in range(trials)]
    actual = float(certify(basis.shape).actual)
    assert check.min_pair_deficit == min(pair_deficit(state) for state in states)
    assert check.max_identity_residual == max(
        abs(counting_sum(state) - actual) for state in states
    )


def test_seventy_qubit_pair_marginal_needs_no_dense_vector():
    # d**n = 2**70 overflows int64, and a dense vector would need 2**74 bytes
    shape = SystemShape(70, 2)
    half = 1 / np.sqrt(2)
    state = PureState(shape, {(0,) * 70: half, (1,) * 70: half})
    tracemalloc.start()
    try:
        marginal = partial_trace(state, {0, 1})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert_allclose(marginal.matrix, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-15)
    assert peak < 1 << 20
    assert state.support() == [(0,) * 70, (1,) * 70]
    assert state_from_dict(state_to_dict(state)) == state
