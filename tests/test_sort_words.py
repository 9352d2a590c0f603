"""The sort route of ``states._marginal_deviations`` on complements wider than one sort word.

A sparse support has fewer stored rows than complement codes, so its
factor columns are numbered by ``states._sort_rows``.  That sort reads
each complement as floats of at most about 52 bits, the sector in front
of the first.  At (64,2) and (45,3) with ``k <= 3`` every complement
spans two such words and the kept sites fall in 2 to 10 sectors.  Each
stored row is one random word with two short windows reshuffled: one
near the front and one in the last sites, which only the second word
reads.  Kept sites drawn inside the front window split the rows into
several sectors, and rows whose front windows differ only on kept sites
share their whole complement while other rows, differing only in the
second word, sort between them in stored order.  Each value is checked
against one dense ``_marginal_blocks`` per subset.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from singletlab import PureState, SystemShape, states
from singletlab.states import _marginal_blocks, _uniform_deviations

# Shape and the label count of every stored row.
PROFILES = {(64, 2): (32, 32), (45, 3): (15, 15, 15)}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from(sorted(PROFILES)),
    rows=st.integers(2, 40),
    span=st.integers(2, 6),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_sort_route_matches_one_dense_marginal_per_subset(shape, rows, span, k, seed, data):
    (n, d), rng = shape, np.random.default_rng(seed)
    front = int(rng.integers(0, n // 2))
    windows = [slice(front, front + span), slice(n - span, n)]
    digits = np.tile(rng.permutation(np.repeat(np.arange(d), PROFILES[shape])), (rows, 1))
    for row in digits:
        for window in windows:
            row[window] = rng.permutation(row[window])
    digits = np.unique(digits, axis=0)
    values = rng.normal(size=len(digits)) + 1j * rng.normal(size=len(digits))
    values /= np.linalg.norm(values)
    state = PureState(SystemShape(n, d), {tuple(map(int, row)): v for row, v in zip(digits, values)})
    profile = state.common_profile()
    assert profile is not None and states._complement_ranks(state, profile, k) is None
    site = st.one_of(st.integers(front, front + span - 1), st.integers(0, n - 1))
    subset = st.lists(site, min_size=k, max_size=k, unique=True).map(sorted)
    subsets = [tuple(sites) for sites in data.draw(st.lists(subset, min_size=1, max_size=8))]
    got = states._marginal_deviations(state, subsets)
    for sites, value in zip(subsets, got, strict=True):
        blocks = _marginal_blocks(state.digits, state.values[None], sites, d)
        assert abs(value - _uniform_deviations(blocks)[0]) <= 1e-12
