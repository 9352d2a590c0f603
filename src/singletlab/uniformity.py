"""Marginal uniformity diagnostics.

A normalized state is *k-uniform* when every ``k``-site reduced density
matrix is maximally mixed, and absolutely maximally entangled when that
holds at ``k = n // 2``.  The diagnostics here report squared Frobenius
deviations from the maximally mixed marginal, summed over subsystems,
so a deficit of zero (within tolerance) is the uniform case and any
positive value quantifies how far away the state sits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

# ``partial_trace`` is no longer called here; perfbench's tracer wraps this binding.
from .states import (
    DEFAULT_TOL,
    PureState,
    _marginal_blocks,
    _pair_sums,
    _require_memory,
    _require_normalized,
    _uniform_deviations,
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
    """
    n, d = state.shape.n, state.shape.d
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1 = {n - 1}, got k={k}")
    _require_normalized(state, tol)
    side = min(k, n - k)
    block = d ** (2 * side)
    factor = d**side * min(state.values.size, d ** (n - side))
    # The factor and its conjugate beside the block, then the block, its
    # difference from I / dim and two real temporaries of the deviation.
    _require_memory(
        16 * (2 * factor + 3 * block), f"a {side}-site marginal of n={n} sites with d={d} levels"
    )
    formed = combinations(range(n), side)
    if 2 * k == n:
        formed = islice(formed, comb(n, k) // 2)
    values = [
        float(_uniform_deviations(_marginal_blocks(state.digits, state.values[None], sites, d))[0])
        for sites in formed
    ]
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
