"""Minimize the pair deficit over a fixed invariant subspace.

Every two-site marginal of an invariant state commutes with ``U (x) U``,
so it is a Werner state, fixed by its trace and its swap expectation.
The pair deficit of ``psi(c) = sum_j c_j b_j`` is therefore a quadratic
in the swap expectations ``s_ab = c^H S_ab c``, with one precomputed
``r x r`` swap matrix ``S_ab[k, j] = <b_k|P_ab|b_j>`` per site pair
(the basis amplitudes against a copy with sites ``a`` and ``b``
exchanged, so no marginal is formed), and both the objective and its
gradient come out of one matrix-vector product.  On the unit sphere it
is the least-squares sum ``kappa d sum_ab (s_ab - 1/d)**2``, with
Jacobian rows from the same product, so the search runs seeded restarts
of Levenberg-Marquardt on the sphere of complex coefficients.
Its purpose is to exhibit, not assume, that the best reachable deficit
stays above the certificate floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import index
from typing import Sequence

import numpy as np

from .nogo import _fraction_to_dict, certify
from .singlet import SingletBasis, _complex_normal, _generator
from .states import DEFAULT_TOL, _weights, state_to_dict
# The objective calls no marginal routine; perfbench's tracer wraps
# cross_marginal through this binding.
from .states import cross_marginal  # noqa: F401
from .uniformity import pair_deficit

__all__ = [
    "PairDeficitObjective",
    "OptimizationResult",
    "minimize_deficit",
    "result_to_dict",
]

# Damping mu = theta |J^T rho|: first theta, its factors on an accepted
# and a rejected step, floor, and the ceiling where a restart stalls; the
# least fraction of its predicted decrease an accepted step achieves; the
# fraction of the largest eigenvalue of J J^T below which one is rounding.
_THETA0 = 1e-2
_SHRINK = 0.5
_GROW = 4.0
_THETA_MIN = 1e-12
_THETA_MAX = 1e16
_ACCEPT = 1e-4
_RCOND = 1e-12

#: Convergence threshold on the tangential gradient norm.
DEFAULT_GTOL = 1e-8


class PairDeficitObjective:
    """Pair deficit as a quadratic in the two-site swap expectations.

    ``B`` is the basis amplitude matrix: one row per member over the
    shared support.  The swap ``P_A`` of a site pair ``A = (a, b)`` permutes
    multi-indices, so with ``B_A`` the columns of ``B`` read at the
    images ``S_A = conj(B) B_A^T`` is ``S_A[k, j] = <b_k|P_A|b_j>``; the
    ``P`` matrices are stacked into one ``(P r) x r`` array.  The marginal
    ``tau_A(c)`` of an invariant state is the Werner state with trace
    ``t = c^H c`` and swap expectation ``s_A = c^H S_A c``, so with
    ``dim = d**2`` and ``kappa = 1 / (d (d**2 - 1))``:

        D(c) = kappa (d sum_A s_A**2 - 2 t sum_A s_A + P d t**2) - P (2 t - 1) / dim.

    This is ``sum_A ||tau_A(c) - I/dim||_F**2`` at every ``c``, on the
    unit sphere or off it, for an orthonormal invariant basis.  At
    ``d = 1`` every marginal is the ``1 x 1`` matrix ``(t)`` and
    ``s_A = t``, where the bracket is 0/0; the term it stands for,
    ``sum_A tr tau_A**2``, is ``P t**2`` there.  Build memory is ``B``,
    its conjugate, one permuted copy of it and ``P r**2`` complex swap
    entries.
    """

    def __init__(self, basis: SingletBasis) -> None:
        if basis.dimension == 0:
            raise ValueError("basis is empty")
        self.basis = basis
        shape = basis.shape
        if shape.n < 2:
            raise ValueError(f"pair deficit needs n >= 2, got n={shape.n}")
        r, n, d = basis.dimension, shape.n, shape.d
        if d**n >= 2**63:
            raise ValueError(f"multi-index codes overflow int64 at shape {shape}")
        pairs = list(combinations(range(n), 2))
        # Digits are stored unsigned; differences need a signed type.
        digits = basis.support.astype(np.int64)
        weights = _weights(d, n)
        codes = digits @ weights
        conjugate = basis.amplitudes.conj()
        swaps = np.empty((len(pairs), r, r), dtype=complex)
        for swap, (a, b) in zip(swaps, pairs):
            # Base-d code of each support row with digits a and b exchanged.
            image = codes + (digits[:, a] - digits[:, b]) * (weights[b] - weights[a])
            rows = np.minimum(np.searchsorted(codes, image), codes.size - 1)
            # An image outside the support has amplitude 0 in every member.
            moved = np.where(codes[rows] == image, basis.amplitudes[:, rows], 0.0)
            swap[...] = conjugate @ moved.T
        self._swaps = swaps.reshape(len(pairs) * r, r)
        self._pairs = len(pairs)
        self._d = d
        # sum_A tr tau_A**2 is kappa (...) for d > 1 and P t**2 at d = 1.
        self._kappa = 1.0 / (d * (d * d - 1)) if d > 1 else 0.0
        self._one_level = 0.0 if d > 1 else 1.0

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    def _evaluate(self, c: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, float]:
        """Value, the products ``S_A c`` (one row per pair), ``s_A`` and ``t``."""
        products = (self._swaps @ c).reshape(self._pairs, c.size)
        s = (products @ c.conj()).real
        t = float(np.vdot(c, c).real)
        d, pairs = self._d, self._pairs
        value = self._kappa * (d * (s @ s) - 2.0 * t * s.sum() + pairs * d * t * t)
        value += self._one_level * pairs * t * t
        return float(value - pairs * (2.0 * t - 1.0) / d**2), products, s, t

    def value(self, coeffs: Sequence[complex]) -> float:
        """Pair deficit of the combination with the given coefficients."""
        return self._evaluate(np.asarray(coeffs, dtype=complex))[0]

    def value_and_gradient(self, coeffs: Sequence[complex]) -> tuple[float, np.ndarray]:
        """Objective value and its conjugate (Wirtinger) gradient.

        The returned vector ``G`` satisfies ``dD = 2 Re(sum_j G_j d(conj c_j))``;
        in the real embedding ``x = (Re c, Im c)`` the gradient is
        ``(2 Re G, 2 Im G)``.
        """
        c = np.asarray(coeffs, dtype=complex)
        # ``value`` goes through the same contraction, so the two agree
        # bitwise.
        value, products, s, t = self._evaluate(c)
        d, pairs, kappa = self._d, self._pairs, self._kappa
        weights = 2.0 * kappa * (d * s - t)
        scale = 2.0 * kappa * (d * t * pairs - s.sum()) + 2.0 * self._one_level * pairs * t
        scale -= 2.0 * pairs / d**2
        return value, weights @ products + scale * c


def _descend(
    objective: PairDeficitObjective,
    start: np.ndarray,
    max_iters: int,
    gtol: float,
) -> tuple[np.ndarray, list[float], bool, int]:
    """Levenberg-Marquardt descent on the unit sphere from one start point.

    On the sphere ``D(c) = kappa d |rho|**2`` with ``rho_A = s_A - 1/d``;
    the tangent Jacobian row of ``s_A`` is ``g_A = 2 (S_A c - s_A c)`` in
    the real inner product ``Re <a, b>``.  Each step solves
    ``(J J^T + mu I) y = rho`` in the eigenbasis of ``J J^T``, without the
    eigenvalues at rounding level (the constant swap sum of an invariant
    subspace puts the all-ones residual there), and moves to
    ``c - J^T y``, normalized.  With ``mu = theta |J^T rho|`` the steps
    turn Gauss-Newton as the gradient vanishes, along the flat directions
    of a degenerate minimum too.  A step achieving ``_ACCEPT`` of its
    predicted decrease is kept and ``theta`` shrinks; otherwise ``theta``
    grows.  The decrease is summed from the changes in ``s_A``, read off
    the move and the products ``S_A c`` at both ends, which keeps digits
    the deficit loses near the minimum.  Each trial point costs one
    evaluation; the accepted one carries its products forward.
    """
    d = objective._d
    weight = objective._kappa * d
    c = start / np.linalg.norm(start)
    value, products, s, _ = objective._evaluate(c)
    trajectory = [value]
    converged = False
    theta = _THETA0
    for _ in range(max_iters):
        residual = s - 1.0 / d
        rows = 2.0 * (products - s[:, None] * c)
        jt_residual = residual @ rows
        jt_norm = float(np.linalg.norm(jt_residual))
        gnorm = 2.0 * weight * jt_norm
        if gnorm <= gtol:
            converged = True
            break
        lam, vecs = np.linalg.eigh((rows.conj() @ rows.T).real)
        keep = lam > _RCOND * lam[-1]
        lam, vecs = lam[keep], vecs[:, keep]
        moves = vecs.T @ rows
        # u_i . rho, read as <J^T u_i, J^T rho> / lambda_i so that the
        # constant part of rho, which J^T maps to 0, cannot leak in.
        coords = (moves.conj() @ jt_residual).real / lam
        while theta <= _THETA_MAX:
            mu = theta * jt_norm
            damped = lam + mu
            # |rho|**2 - |rho + J delta|**2 at delta = -J^T y, term by term.
            predicted = weight * float(np.sum(coords**2 * lam * (lam + 2.0 * mu) / damped**2))
            candidate = c - (coords / damped) @ moves
            candidate /= np.linalg.norm(candidate)
            _, cand_products, cand_s, _ = objective._evaluate(candidate)
            # s_A' - s_A = Re <c' - c, S_A (c' + c)>, less s_A times the
            # change in |c|**2; c' - c is exact where the move is small.
            diff = candidate - c
            change = ((products + cand_products) @ diff.conj()).real
            change -= s * float(np.vdot(diff, candidate + c).real)
            decrease = -weight * float(change @ (2.0 * residual + change))
            if decrease >= _ACCEPT * predicted:
                theta = max(theta * _SHRINK, _THETA_MIN)
                break
            theta *= _GROW
        else:
            # No productive step left at any damping; treat as stationary.
            converged = gnorm <= max(gtol, 1e-6)
            break
        c, value, products, s = candidate, value - decrease, cand_products, cand_s
        trajectory.append(value)
    return c, trajectory, converged, len(trajectory) - 1


@dataclass(frozen=True)
class OptimizationResult:
    """Best point found over all restarts.

    ``trajectory`` holds the accepted objective values of the winning
    restart (non-increasing by construction); ``restart_deficits`` the
    final value of every restart, which for these objectives should
    agree to high precision, and ``restart_iterations`` the accepted
    steps each one took.
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
    restart_iterations: tuple[int, ...]


def minimize_deficit(
    basis: SingletBasis,
    restarts: int = 16,
    max_iters: int = 10000,
    seed: int = 0,
    gtol: float = DEFAULT_GTOL,
) -> OptimizationResult:
    """Search the unit coefficient sphere for the least pair deficit.

    Runs ``restarts`` Levenberg-Marquardt descents and returns the best
    endpoint.  Their start points are drawn from ``random.Random(seed)``,
    ``2 r`` ``gauss`` draws each, real parts first, so one seed gives the
    same restarts every time; a negative seed is a :class:`ValueError`.
    A one-dimensional basis needs no search: up to
    phase there is only one state, so its deficit is returned directly
    with zero iterations.  The reported deficit is replayed with
    :func:`pair_deficit` on the reported state; :class:`ValueError` is
    raised when the two differ by more than ``DEFAULT_TOL``, as they do
    for a basis that is not orthonormal and invariant.
    """
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    if not np.isfinite(gtol) or gtol < 0.0:
        raise ValueError(f"gtol must be finite and >= 0, got {gtol}")
    rng = _generator(seed)
    objective = PairDeficitObjective(basis)
    certificate = certify(basis.shape)
    floor = float(certificate.deficit_floor) if certificate.deficit_floor is not None else 0.0
    if basis.dimension == 1:
        deficit = objective.value(np.ones(1, dtype=complex))
        outcomes = [(np.ones(1, dtype=complex), [deficit], True, 0)]
    else:
        outcomes = [
            _descend(objective, _complex_normal(rng, basis.dimension), max_iters, gtol)
            for _ in range(restarts)
        ]
    # The first restart with the least final value wins.
    c, trajectory, converged, iterations = min(outcomes, key=lambda outcome: outcome[1][-1])
    coefficients = c / np.linalg.norm(c)
    replay = pair_deficit(basis.combine(coefficients).normalized())
    if abs(replay - trajectory[-1]) > DEFAULT_TOL:
        raise ValueError(
            f"best deficit {trajectory[-1]:.12g} disagrees with the replayed pair deficit "
            f"{replay:.12g} of its state: the swap form needs an orthonormal invariant basis"
        )
    return OptimizationResult(
        coefficients=tuple(complex(z) for z in coefficients),
        deficit=trajectory[-1],
        floor=floor,
        iterations=iterations,
        converged=converged,
        restarts=restarts,
        seed=index(seed),
        trajectory=tuple(trajectory),
        restart_deficits=tuple(outcome[1][-1] for outcome in outcomes),
        restart_iterations=tuple(outcome[3] for outcome in outcomes),
    )


def result_to_dict(result: OptimizationResult, basis: SingletBasis) -> dict:
    """Plain-dict form of a result, including the resolved best state."""
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
        "floor": _fraction_to_dict(certify(basis.shape).deficit_floor),
        "floor_decimal": result.floor,
        "coefficients": [{"re": z.real, "im": z.imag} for z in result.coefficients],
        "restart_deficits": list(result.restart_deficits),
        "restart_iterations": list(result.restart_iterations),
        "trajectory": list(result.trajectory),
        "state": state_to_dict(state),
    }
