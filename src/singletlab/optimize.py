"""Minimize the pair deficit over a fixed invariant subspace.

The pair deficit of ``psi(c) = sum_j c_j b_j`` is a quartic form in the
coefficients: every two-site marginal is ``sum_{j,k} c_j conj(c_k)``
times a precomputed cross-marginal block, so both the objective and its
gradient come out of a handful of small matrix contractions.  The
search runs projected gradient descent on the unit coefficient sphere
with Armijo backtracking and seeded random restarts.  Its purpose is to
exhibit, not assume, that the best reachable deficit stays above the
certificate floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .nogo import certify
from .singlet import SingletBasis
from .states import cross_marginal, state_to_dict

__all__ = [
    "PairDeficitObjective",
    "OptimizationResult",
    "minimize_deficit",
    "gradient_check",
    "result_to_dict",
]

# Armijo backtracking parameters: initial step, sufficient-decrease
# constant, contraction factor, smallest step before giving up.
_STEP0 = 1.0
_ARMIJO = 1e-4
_SHRINK = 0.5
_MIN_STEP = 1e-14

#: Convergence threshold on the tangential gradient norm.
DEFAULT_GTOL = 1e-8


class PairDeficitObjective:
    """Pair deficit as an explicit quartic form over basis coefficients.

    For each site pair ``A`` the blocks ``T_A[j, k] = Tr_B |b_j><b_k|``
    give ``tau_A(c) = sum_{jk} c_j conj(c_k) T_A[j, k]``, so the deficit
    ``sum_A ||tau_A(c) - I/d**2||_F**2`` expands into a quartic plus a
    quadratic term.  Both are contracted down once at construction
    (``M[jk, ml] = sum_A Tr(T_A[j,k] T_A[m,l])`` and the block traces):
    one :func:`cross_marginal` call per pair gives every ``T_A[j, k]``,
    and one matrix product over all pairs gives ``M``.  After that every
    evaluation is a dense matrix-vector product in ``r**2`` dimensions:

        D(c) = w^T M w - (2/dim) Re(L . w) + P/dim,
        w = outer(c, conj(c)) flattened, P site pairs, dim = d**2.
    """

    def __init__(self, basis: SingletBasis) -> None:
        if basis.dimension == 0:
            raise ValueError("basis is empty")
        self.basis = basis
        shape = basis.shape
        if shape.n < 2:
            raise ValueError(f"pair deficit needs n >= 2, got n={shape.n}")
        r = basis.dimension
        dim = shape.d**2
        self._dim = dim
        states = basis.states
        # blocks[A, j, k] = T_A[j, k]
        blocks = np.stack(
            [cross_marginal(states, states, sites) for sites in combinations(range(shape.n), 2)]
        )
        rows = blocks.transpose(1, 2, 0, 3, 4).reshape(r * r, -1)
        columns = blocks.transpose(1, 2, 0, 4, 3).reshape(r * r, -1)
        self._quartic = rows @ columns.T
        self._linear = np.trace(blocks, axis1=3, axis2=4).sum(axis=0).reshape(r * r)
        self._offset = blocks.shape[0] / dim

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    def value(self, coeffs: Sequence[complex]) -> float:
        """Pair deficit of the combination with the given coefficients."""
        c = np.asarray(coeffs, dtype=complex)
        w = np.outer(c, c.conj()).reshape(-1)
        quartic = (w @ (self._quartic @ w)).real
        cross = (self._linear @ w).real
        return float(quartic - 2.0 / self._dim * cross + self._offset)

    def value_and_gradient(self, coeffs: Sequence[complex]) -> tuple[float, np.ndarray]:
        """Objective value and its conjugate (Wirtinger) gradient.

        The returned vector ``G`` satisfies ``dD = 2 Re(sum_j G_j d(conj c_j))``;
        in the real embedding ``x = (Re c, Im c)`` the gradient is
        ``(2 Re G, 2 Im G)``.
        """
        c = np.asarray(coeffs, dtype=complex)
        r = c.size
        w = np.outer(c, c.conj()).reshape(-1)
        fw = self._quartic @ w
        # Same contraction order as ``value`` so the two paths agree
        # bitwise; the line search compares one against the other.
        quartic = (w @ fw).real
        folded = fw.reshape(r, r)
        cross = (self._linear @ w).real
        value = float(quartic - 2.0 / self._dim * cross + self._offset)
        # The quartic tensor is symmetric under (jk)<->(ml), so the
        # Wirtinger derivative folds into a single contraction.
        grad = 2.0 * (c @ folded) - 2.0 / self._dim * (c @ self._linear.reshape(r, r))
        return value, grad


def _embed(c: np.ndarray) -> np.ndarray:
    return np.concatenate([c.real, c.imag])


def _complexify(x: np.ndarray) -> np.ndarray:
    half = x.size // 2
    return x[:half] + 1j * x[half:]


def _descend(
    objective: PairDeficitObjective,
    start: np.ndarray,
    max_iters: int,
    gtol: float,
) -> tuple[np.ndarray, list[float], bool, int]:
    """Projected gradient descent on the unit sphere from one start point."""
    x = start / np.linalg.norm(start)
    value, wirtinger = objective.value_and_gradient(_complexify(x))
    trajectory = [value]
    converged = False
    iterations = 0
    for _ in range(max_iters):
        gradient = np.concatenate([2.0 * wirtinger.real, 2.0 * wirtinger.imag])
        tangent = gradient - (gradient @ x) * x
        gnorm = float(np.linalg.norm(tangent))
        if gnorm <= gtol:
            converged = True
            break
        step = _STEP0
        accepted = False
        while step >= _MIN_STEP:
            # Near the valley floor the Armijo margin can underflow
            # below one ulp of ``value``; flooring it at a few ulps
            # keeps every accepted step a representable decrease, so
            # the iterate can neither drift at constant value nor creep
            # one ulp at a time until the iteration cap.
            margin = max(_ARMIJO * step * gnorm**2, 4.0 * np.spacing(value))
            candidate = x - step * tangent
            candidate /= np.linalg.norm(candidate)
            cand_value = objective.value(_complexify(candidate))
            if cand_value <= value - margin:
                accepted = True
                break
            step *= _SHRINK
        if not accepted:
            # No productive step left at this scale; treat as stationary.
            converged = gnorm <= max(gtol, 1e-6)
            break
        new_value, new_wirtinger = objective.value_and_gradient(_complexify(candidate))
        if not new_value < value:
            # The accepted decrease did not survive re-evaluation, so
            # the objective is flat here at floating-point resolution;
            # moving on would let the loop spin at constant value.
            converged = gnorm <= max(gtol, 1e-6)
            break
        x = candidate
        value = new_value
        wirtinger = new_wirtinger
        iterations += 1
        trajectory.append(value)
    return x, trajectory, converged, iterations


@dataclass(frozen=True)
class OptimizationResult:
    """Best point found over all restarts.

    ``trajectory`` holds the accepted objective values of the winning
    restart (non-increasing by construction); ``restart_deficits`` the
    final value of every restart, which for these objectives should
    agree to high precision.
    """

    coefficients: tuple[complex, ...]
    deficit: float
    floor: float
    iterations: int
    converged: bool
    restarts: int
    seed: int
    trajectory: tuple[float, ...]
    restart_deficits: tuple[float, ...]


def minimize_deficit(
    basis: SingletBasis,
    restarts: int = 16,
    max_iters: int = 10000,
    seed: int = 0,
    gtol: float = DEFAULT_GTOL,
) -> OptimizationResult:
    """Search the unit coefficient sphere for the least pair deficit.

    Runs ``restarts`` seeded projected-gradient descents and returns the
    best endpoint.  A one-dimensional basis needs no search: up to
    phase there is only one state, so its deficit is returned directly
    with zero iterations.
    """
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    objective = PairDeficitObjective(basis)
    certificate = certify(basis.shape)
    floor = float(certificate.deficit_floor) if certificate.deficit_floor is not None else 0.0
    if basis.dimension == 1:
        deficit = objective.value(np.ones(1, dtype=complex))
        return OptimizationResult(
            coefficients=(1.0 + 0.0j,),
            deficit=deficit,
            floor=floor,
            iterations=0,
            converged=True,
            restarts=restarts,
            seed=seed,
            trajectory=(deficit,),
            restart_deficits=(deficit,),
        )
    rng = np.random.default_rng(seed)
    size = 2 * basis.dimension
    best: tuple[np.ndarray, list[float], bool, int] | None = None
    finals: list[float] = []
    for _ in range(restarts):
        start = rng.standard_normal(size)
        outcome = _descend(objective, start, max_iters, gtol)
        finals.append(outcome[1][-1])
        if best is None or outcome[1][-1] < best[1][-1]:
            best = outcome
    assert best is not None
    x, trajectory, converged, iterations = best
    x = x / np.linalg.norm(x)
    return OptimizationResult(
        coefficients=tuple(complex(z) for z in _complexify(x)),
        deficit=trajectory[-1],
        floor=floor,
        iterations=iterations,
        converged=converged,
        restarts=restarts,
        seed=seed,
        trajectory=tuple(trajectory),
        restart_deficits=tuple(finals),
    )


def gradient_check(
    basis: SingletBasis,
    coefficients: Sequence[complex] | None = None,
    seed: int = 0,
    step: float = 1e-5,
    directions: int = 10,
) -> float:
    """Worst mismatch between analytic and central-difference derivatives.

    Probes ``directions`` random tangent directions at the given point
    (a seeded random unit point when none is supplied) and returns the
    largest ``|finite difference - analytic| / max(1, |analytic|)``.
    A one-dimensional basis has no tangent directions that change the
    state, so the check returns 0 there.
    """
    objective = PairDeficitObjective(basis)
    if basis.dimension == 1:
        return 0.0
    rng = np.random.default_rng(seed)
    if coefficients is None:
        x = rng.standard_normal(2 * basis.dimension)
    else:
        x = _embed(np.asarray(coefficients, dtype=complex))
    x = x / np.linalg.norm(x)
    _, wirtinger = objective.value_and_gradient(_complexify(x))
    gradient = np.concatenate([2.0 * wirtinger.real, 2.0 * wirtinger.imag])
    worst = 0.0
    for _ in range(directions):
        direction = rng.standard_normal(x.size)
        direction -= (direction @ x) * x
        direction /= np.linalg.norm(direction)
        forward = objective.value(_complexify(x + step * direction))
        backward = objective.value(_complexify(x - step * direction))
        numeric = (forward - backward) / (2.0 * step)
        analytic = float(gradient @ direction)
        worst = max(worst, abs(numeric - analytic) / max(1.0, abs(analytic)))
    return worst


def result_to_dict(result: OptimizationResult, basis: SingletBasis) -> dict:
    """Plain-dict form of a result, including the resolved best state."""
    certificate = certify(basis.shape)
    floor_fraction = certificate.deficit_floor
    state = basis.combine(result.coefficients).normalized()
    return {
        "n": basis.shape.n,
        "d": basis.shape.d,
        "dimension": basis.dimension,
        "seed": result.seed,
        "restarts": result.restarts,
        "iterations": result.iterations,
        "converged": result.converged,
        "deficit": result.deficit,
        "floor": (
            None
            if floor_fraction is None
            else {"num": floor_fraction.numerator, "den": floor_fraction.denominator}
        ),
        "floor_decimal": result.floor,
        "coefficients": [{"re": z.real, "im": z.imag} for z in result.coefficients],
        "restart_deficits": list(result.restart_deficits),
        "trajectory": list(result.trajectory),
        "state": state_to_dict(state),
    }
