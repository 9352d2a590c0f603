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
from itertools import combinations

from .states import DEFAULT_TOL, PureState, _pair_sums, _require_normalized, partial_trace

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
    within ``tolerance`` of the largest deviation, so that exact ties (at
    ``k = n/2`` each subsystem ties with its complement) survive roundoff.
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
    """
    n = state.shape.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1 = {n - 1}, got k={k}")
    deviations = []
    for sites in combinations(range(n), k):
        marginal = partial_trace(state, sites, tol)
        deviations.append((sites, marginal.uniform_deviation()))
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
