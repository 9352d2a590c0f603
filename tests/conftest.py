"""Shared fixtures and independent numerical oracles.

The oracles here deliberately avoid the library's own marginal and kernel
routines: they work on dense vectors with plain numpy reshapes so that the
sparse implementations are checked against an independent computation.
"""

import itertools
import os
import resource

import numpy as np
import pytest

from singletlab import PureState, SystemShape, fixtures, load_state

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def dense_marginal(state, sites):
    """Reduced density matrix on ``sites`` via dense reshape/transpose."""
    shape = state.shape
    keep = sorted(sites)
    drop = [s for s in range(shape.n) if s not in keep]
    tensor = state.to_dense().reshape((shape.d,) * shape.n)
    block = np.transpose(tensor, keep + drop).reshape(
        shape.d ** len(keep), shape.d ** len(drop)
    )
    return block @ block.conj().T


def dense_uniform_deviation(state, sites):
    """Squared Frobenius distance of the dense marginal from I/d^|A|."""
    rho = dense_marginal(state, sites)
    dim = rho.shape[0]
    diff = rho - np.eye(dim) / dim
    return float(np.sum(np.abs(diff) ** 2))


def random_dense_state(shape, rng):
    """Haar-uniform normalized dense state vector as a PureState."""
    vec = rng.standard_normal(shape.total_dimension) + 1j * rng.standard_normal(
        shape.total_dimension
    )
    vec /= np.linalg.norm(vec)
    return PureState.from_dense(shape, vec)


def random_balanced_state(shape, rng):
    """Random normalized state supported only on balanced multi-indices."""
    from singletlab import SupportProfile, enumerate_support

    indices = enumerate_support(shape, SupportProfile.uniform(shape))
    coeffs = rng.standard_normal(len(indices)) + 1j * rng.standard_normal(len(indices))
    coeffs /= np.linalg.norm(coeffs)
    return PureState(shape, dict(zip(indices, coeffs)), canonicalize=False)


def tensordot_local_image(vector, matrix, n, d):
    """``matrix`` on every site of a dense vector, one ``tensordot`` + ``moveaxis`` per site."""
    tensor = np.asarray(vector).reshape((d,) * n)
    for axis in range(n):
        tensor = np.moveaxis(np.tensordot(matrix, tensor, axes=([1], [axis])), 0, axis)
    return tensor.reshape(-1)


def kron_chain(matrices):
    out = np.array([[1.0 + 0.0j]])
    for m in matrices:
        out = np.kron(out, m)
    return out


@pytest.fixture(scope="session")
def bell():
    return fixtures.load("bell_singlet")


@pytest.fixture(scope="session")
def qutrit():
    return fixtures.load("qutrit_singlet")


@pytest.fixture(scope="session")
def four_qubit():
    return fixtures.load("four_qubit_singlet")


@pytest.fixture(scope="session")
def ring6():
    return load_state(os.path.join(DATA_DIR, "graph_state_ring6.json"))


@pytest.fixture
def address_space_cap(monkeypatch):
    """Make the memory guards read a given soft address-space limit; the process keeps its own."""

    def cap(limit):
        monkeypatch.setattr(resource, "getrlimit", lambda which: (limit, resource.RLIM_INFINITY))

    return cap


@pytest.fixture(scope="session")
def basis_cache():
    """Memoized singlet-basis builder shared across the whole run."""
    from singletlab import build_singlet_basis

    cache = {}

    def get(n, d):
        if (n, d) not in cache:
            cache[(n, d)] = build_singlet_basis(SystemShape(n, d))
        return cache[(n, d)]

    return get
