"""Reference routines the tests check the package against.

No command reaches these; they stay here as oracles:

* :func:`standard_traceless_generators`: the dense one-site algebra
  that the collective operators are built from.
* :func:`apply_collective`: the one-row case of the sparse collective
  sums (``states._collective_terms`` and ``states._collective_sum``)
  that ``verify`` runs on its members, checked against a dense
  Kronecker product.
* :func:`gradient_check`: central differences against
  ``PairDeficitObjective.value_and_gradient``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from singletlab.optimize import PairDeficitObjective
from singletlab.singlet import SingletBasis, _complex_normal, _generator
from singletlab.states import PureState, _collective_sum, _collective_terms


def standard_traceless_generators(d: int) -> list[np.ndarray]:
    """Hermitian traceless basis of the one-site algebra.

    Returns ``d**2 - 1`` matrices: for every pair ``a < b`` the symmetric
    and antisymmetric off-diagonal pair, then the ``d - 1`` differences
    of consecutive diagonal projectors.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    gens: list[np.ndarray] = []
    for a in range(d):
        for b in range(a + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[a, b] = sym[b, a] = 1.0
            asym = np.zeros((d, d), dtype=complex)
            asym[a, b] = -1.0j
            asym[b, a] = 1.0j
            gens.append(sym)
            gens.append(asym)
    for a in range(d - 1):
        diag = np.zeros((d, d), dtype=complex)
        diag[a, a] = 1.0
        diag[a + 1, a + 1] = -1.0
        gens.append(diag)
    return gens


def apply_collective(state: PureState, matrix: np.ndarray) -> PureState:
    """Apply the collective operator ``sum_a g^(a)`` (one-site ``g`` summed over sites).

    This is the infinitesimal counterpart of :func:`apply_local` and is
    what annihilates collectively invariant states when ``g`` is
    traceless.  Sparse: cost is ``O(terms * n * d)``.  The one-row case
    of the sums ``verify`` runs on its members.
    """
    g = np.asarray(matrix, dtype=complex)
    d = state.shape.d
    if g.shape != (d, d):
        raise ValueError(f"generator must be {d}x{d}, got {g.shape}")
    columns, weights, inverse, first, images = _collective_terms(state.digits, g, d)
    total = _collective_sum(state.values[None], columns, weights, inverse, first.size)
    return PureState._from_arrays(state.shape, images[first], total[0])


def gradient_check(
    basis: SingletBasis,
    coefficients: Sequence[complex] | None = None,
    seed: int = 0,
    step: float = 1e-5,
    directions: int = 10,
) -> float:
    """Worst mismatch between analytic and central-difference derivatives.

    Probes ``directions`` random tangent directions at the given point
    (a random unit point when none is supplied), all drawn from
    ``random.Random(seed)`` like :func:`minimize_deficit`'s start points,
    and returns the largest
    ``|finite difference - analytic| / max(1, |analytic|)``.
    A one-dimensional basis has no tangent directions that change the
    state, so the check returns 0 there.
    """
    rng = _generator(seed)
    objective = PairDeficitObjective(basis)
    if basis.dimension == 1:
        return 0.0
    r = basis.dimension
    c = _complex_normal(rng, r) if coefficients is None else np.asarray(coefficients, dtype=complex)
    c = c / np.linalg.norm(c)
    _, wirtinger = objective.value_and_gradient(c)
    gradient = 2.0 * wirtinger
    worst = 0.0
    for _ in range(directions):
        direction = _complex_normal(rng, r)
        direction -= np.vdot(c, direction).real * c
        direction /= np.linalg.norm(direction)
        forward = objective.value(c + step * direction)
        backward = objective.value(c - step * direction)
        numeric = (forward - backward) / (2.0 * step)
        analytic = float(np.vdot(gradient, direction).real)
        worst = max(worst, abs(numeric - analytic) / max(1.0, abs(analytic)))
    return worst
