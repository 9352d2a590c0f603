"""The swap stack is built with the basis conjugated once, before the pair loop.

The reference below is the loop that conjugated the amplitude matrix
again for every site pair.  Both multiply the same operands in the same
order, so the stacks must agree byte for byte.
"""

from itertools import combinations

import numpy as np
import pytest

from singletlab import PairDeficitObjective
from singletlab.states import _weights


def per_pair_conjugate_swaps(basis):
    """``(P r) x r`` swap stack, conjugating ``basis.amplitudes`` once per pair."""
    r, n, d = basis.dimension, basis.shape.n, basis.shape.d
    pairs = list(combinations(range(n), 2))
    digits = basis.support.astype(np.int64)
    weights = _weights(d, n)
    codes = digits @ weights
    swaps = np.empty((len(pairs), r, r), dtype=complex)
    for swap, (a, b) in zip(swaps, pairs):
        image = codes + (digits[:, a] - digits[:, b]) * (weights[b] - weights[a])
        rows = np.minimum(np.searchsorted(codes, image), codes.size - 1)
        moved = np.where(codes[rows] == image, basis.amplitudes[:, rows], 0.0)
        swap[...] = basis.amplitudes.conj() @ moved.T
    return swaps.reshape(len(pairs) * r, r)


@pytest.mark.parametrize("n, d", [(8, 2), (6, 3), (9, 3)])
def test_swap_stack_matches_per_pair_conjugate(basis_cache, n, d):
    basis = basis_cache(n, d)
    swaps = PairDeficitObjective(basis)._swaps
    reference = per_pair_conjugate_swaps(basis)
    assert swaps.shape == reference.shape
    assert swaps.tobytes() == reference.tobytes()
