"""Marginal uniformity diagnostics.

A normalized state is *k-uniform* when every ``k``-site reduced density
matrix is maximally mixed, and absolutely maximally entangled when that
holds at ``k = n // 2``.  The diagnostics here report squared Frobenius
deviations from the maximally mixed marginal, summed over subsystems,
so a deficit of zero (within tolerance) is the uniform case and any
positive value quantifies how far away the state sits.

The no-go's states have balanced support: every stored multi-index
holds each label ``n / d`` times.  A kept row of occupation profile
``p`` then shares complement rows only with kept rows of the same
profile, so every ``k``-site marginal is block-diagonal in the kept
sites' occupation numbers.  :func:`is_k_uniform` forms only those
diagonal blocks, one occupation sector at a time, for a chunk of
subsets per batched product; the chunk is held to a fixed byte budget.
A random invariant state stores every word of its profile at every
shape tested: its support is complete.  Each block's columns are then
all the complement words of one profile, numbered by one rank table for
every subset rather than by a sort of each chunk's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

# ``partial_trace`` is no longer called here; perfbench's tracer wraps this binding.
from .states import (
    DEFAULT_TOL,
    PureState,
    _marginal_deviations,
    _pair_sums,
    _require_normalized,
    partial_trace,
)

__all__ = [
    "UniformityReport",
    "is_k_uniform",
    "is_ame",
    "pair_deficit",
    "report_to_dict",
]


@dataclass(frozen=True)
class UniformityReport:
    """Per-subsystem marginal deviations for one value of ``k``.

    ``deviations`` lists ``(sites, squared Frobenius deviation)`` for
    every size-``k`` subsystem in lexicographic order; ``deficit`` is
    their sum and ``worst_subsystem`` the lexicographically first one
    within ``tolerance`` of the largest deviation.  At ``k = n/2`` each
    subsystem's deviation is its complement's, the same float, so the
    first of each tied pair is the one holding site 0.
    """

    k: int
    tolerance: float
    deficit: float
    worst_subsystem: tuple[int, ...]
    deviations: tuple[tuple[tuple[int, ...], float], ...]
    is_uniform: bool

    def __bool__(self) -> bool:
        return self.is_uniform


def is_k_uniform(state: PureState, k: int, tol: float = DEFAULT_TOL) -> UniformityReport:
    """Check whether every ``k``-site marginal is maximally mixed.

    Parameters
    ----------
    state : PureState
        Normalized state.
    k : int
        Subsystem size, ``1 <= k <= n - 1``.
    tol : float
        The state is declared k-uniform when the summed deviation stays
        at or below this.

    Notes
    -----
    A pure state's marginals on ``A`` and on its complement share their
    purity ``P``, and the deviation on ``X`` is ``P - (2 N - 1) / D_X``
    with ``N`` the squared norm and ``D_X`` the marginal's dimension.  So
    each marginal is formed on the smaller side of its cut, and at
    ``k = n/2`` only for the subsystems that hold site 0.  The complement
    of ``combinations(range(n), k)[i]`` is
    ``combinations(range(n), n - k)[-1 - i]``.

    When every stored multi-index has the same occupation profile ``P``,
    as balanced support guarantees, a kept row of profile ``p`` meets
    only complement rows of profile ``P - p``.  Each marginal is then
    block-diagonal in ``p``, and only its diagonal blocks
    ``B_p = F_p @ F_p^H`` are formed; a state with several profiles has
    one block.  The deviation stays entrywise, the sum over ``p`` of
    ``||B_p - I / D||^2``, because the entries between sectors are exact
    zeros; a maximally mixed marginal still reads about ``1e-33``, not
    the roundoff of ``P - (2 N - 1) / D``.  On a complete support, every
    word of ``P`` stored, the columns of ``F_p`` are all the complement
    words of profile ``P - p``, and one rank table of the complement
    codes numbers them for every subset (when it has no more entries
    than the support has rows); any other support sorts each subset's
    rows.  Both number the columns alike, so the report is the same to
    the bit.  The subsets go through in
    chunks held to a fixed byte budget, down to one subset when the
    memory limit is lower; a subset whose dense marginal could not fit
    is refused with :class:`MemoryError` before any work.
    """
    n, d = state.shape.n, state.shape.d
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1 = {n - 1}, got k={k}")
    _require_normalized(state, tol)
    side = min(k, n - k)
    formed = combinations(range(n), side)
    if 2 * k == n:
        # The first half of the lexicographic order: the subsystems holding site 0.
        formed = ((0, *rest) for rest in combinations(range(1, n), side - 1))
    values = _marginal_deviations(state, formed).tolist()
    if 2 * k == n:
        values += values[::-1]
    elif k > side:
        shift = (2 * state.norm() ** 2 - 1) * (d**-side - d**-k)
        values = [value + shift for value in reversed(values)]
    deviations = list(zip(combinations(range(n), k), values))
    deficit = sum(dev for _, dev in deviations)
    top = max(dev for _, dev in deviations)
    worst = next(sites for sites, dev in deviations if dev >= top - tol)
    return UniformityReport(
        k=k,
        tolerance=tol,
        deficit=deficit,
        worst_subsystem=worst,
        deviations=tuple(deviations),
        is_uniform=deficit <= tol,
    )


def is_ame(state: PureState, tol: float = DEFAULT_TOL) -> UniformityReport:
    """Uniformity report at the absolutely-maximally-entangled level ``n // 2``."""
    n = state.shape.n
    if n < 2:
        raise ValueError(f"absolute maximal entanglement needs n >= 2, got n={n}")
    return is_k_uniform(state, n // 2, tol)


def pair_deficit(state: PureState, tol: float = DEFAULT_TOL) -> float:
    """Total squared deviation of all two-site marginals from maximally mixed.

    This is the objective the optimizer minimizes and the quantity the
    counting certificate bounds from below.  Zero exactly for two-uniform
    states.  For ``n == 2`` the single pair is the whole system.  The sum
    is read from the same pair pass that the certificate replay uses.
    """
    n = state.shape.n
    if n < 2:
        raise ValueError(f"pair deficit needs n >= 2, got n={n}")
    _require_normalized(state, tol)
    return float(_pair_sums(state.digits, state.values[None], state.shape.d)[1][0])


def report_to_dict(report: UniformityReport, state: PureState) -> dict:
    """Plain-dict form of a uniformity report for JSON output."""
    return {
        "n": state.shape.n,
        "d": state.shape.d,
        "k": report.k,
        "tolerance": report.tolerance,
        "deficit": report.deficit,
        "is_k_uniform": report.is_uniform,
        "worst_subsystem": list(report.worst_subsystem),
        "subsystems": [
            {"sites": list(sites), "deviation": deviation}
            for sites, deviation in report.deviations
        ],
    }
