"""Exact counting obstruction to two-uniformity on balanced supports.

For any normalized state whose every multi-index occupies each label
exactly ``K = n // d`` times, the equal-label diagonal entries of the
two-site marginals obey a counting identity: summed over all site pairs
and labels they always total ``d * C(K, 2)``.  Two-uniformity would
force that same sum to ``C(n, 2) / d``.  The shortfall is

    gap = C(n, 2) / d - d * C(K, 2) = K * (d - 1) / 2,

strictly positive whenever ``d >= 2``, so no such state can be
two-uniform, and by Cauchy-Schwarz its pair deficit is at least
``gap**2 / (d * C(n, 2))``.  Everything here is exact rational
arithmetic; the numerical checker replays both facts on sampled states.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .singlet import SingletBasis, verify_invariance
from .states import DEFAULT_TOL, PureState, SystemShape, _require_memory, _require_normalized
from .states import _pair_sums as _replay_sums, joint_amplitudes
# perfbench's tracer wraps partial_trace through this binding.
from .states import partial_trace  # noqa: F401
# The floor bounds pair_deficit; perfbench's tracer wraps it through this binding.
from .uniformity import pair_deficit  # noqa: F401

__all__ = [
    "CertificateViolationError",
    "NoGoCertificate",
    "CertificateCheck",
    "counting_sum",
    "certify",
    "verify_certificate_numerically",
    "certificate_to_dict",
    "check_to_dict",
]


class CertificateViolationError(RuntimeError):
    """A sampled state contradicted the certificate's guaranteed bounds."""


def counting_sum(state: PureState, tol: float = DEFAULT_TOL) -> float:
    """Equal-label diagonal mass of all two-site marginals.

    Sums ``tau_{ab}(l, l; l, l)`` over all site pairs ``a < b`` and all
    labels ``l``.  Requires a normalized state with balanced support;
    every such state gives exactly ``d * C(K, 2)`` regardless of its
    amplitudes, because each stored index contributes ``C(K, 2)`` equal
    pairs per label.  The sum is read from the same pair pass that
    :func:`verify_certificate_numerically` replays.
    """
    if not state.has_uniform_support():
        raise ValueError("counting sum requires a balanced (uniform-profile) support")
    _require_normalized(state, tol)
    return float(_replay_sums(state.digits, state.values[None], state.shape.d)[0][0])


def _werner_form(s: np.ndarray, d: int) -> np.ndarray:
    """Pair deficit of normalized invariant states, read from their swap expectations.

    Every pair marginal of such a state is a Werner state, fixed by its
    swap expectation ``s = sum_ij tau[(i, j), (j, i)]``, and its squared
    distance from ``I / d**2`` is
    ``f_d(s) = (d s**2 - 2 s + d) / (d (d**2 - 1)) - 1 / d**2``
    (0 at ``d = 1``, where every marginal is ``(1)``).  This is the
    per-pair form of the optimizer's objective at unit norm.  ``s`` holds
    one row of pair swap expectations per state.
    """
    if d == 1:
        return np.zeros(len(s))
    return np.sum((d * s**2 - 2 * s + d) / (d * (d * d - 1)) - 1.0 / d**2, axis=1)


#: Bytes one batch of replayed trials may hold: their amplitude rows and
#: states, and one site pair's factors with their conjugate.
_REPLAY_BYTES = 32 * 2**20


def _replay_batch(basis: SingletBasis, trials: int) -> int:
    """Trials per batch of the replay; :class:`MemoryError` when one batch cannot fit.

    A trial costs its amplitude row and its state (about ``(32 + n) S``
    bytes on a support of ``S`` rows) and, per site pair, a ``d**2 x m``
    complex factor and its conjugate, with ``m <= S`` complement rows.
    Batches stay within ``_REPLAY_BYTES`` unless a single trial exceeds
    it, and are checked against the soft address-space limit when one is
    set, else physical memory.
    """
    n, d = basis.shape.n, basis.shape.d
    support = len(basis.support)
    per_trial = (32 + n + 32 * d * d) * support
    batch = max(1, min(trials, _REPLAY_BYTES // per_trial))
    _require_memory(
        batch * per_trial, f"replaying pair marginals of n={n} sites with d={d} levels"
    )
    return batch


@dataclass(frozen=True)
class NoGoCertificate:
    """Exact rational comparison between required and attainable diagonal mass.

    ``required`` is what two-uniformity would demand of the counting
    sum, ``actual`` what balanced support forces, and ``gap`` their
    difference.  ``deficit_floor`` is the guaranteed lower bound on the
    pair deficit of any normalized balanced-support state.  All values
    are exact fractions; ``actual``, ``gap`` and ``deficit_floor`` are
    None when ``d`` does not divide ``n`` (no balanced support exists,
    hence no invariant states at all).
    """

    n: int
    d: int
    divisible: bool
    copies: int | None
    required: Fraction
    actual: Fraction | None
    gap: Fraction | None
    deficit_floor: Fraction | None
    two_uniform_possible: bool
    ame_possible: bool
    verdict: str


def certify(shape: SystemShape) -> NoGoCertificate:
    """Build the exact certificate for one system shape."""
    n, d = shape.n, shape.d
    pairs = comb(n, 2)
    required = Fraction(pairs, d)
    if not shape.divisible:
        return NoGoCertificate(
            n=n,
            d=d,
            divisible=False,
            copies=None,
            required=required,
            actual=None,
            gap=None,
            deficit_floor=None,
            two_uniform_possible=False,
            ame_possible=False,
            verdict=(
                f"d={d} does not divide n={n}: no multi-index can occupy every "
                "label equally, so no collectively invariant states exist."
            ),
        )
    copies = shape.copies
    actual = d * Fraction(comb(copies, 2))
    gap = required - actual
    floor = gap * gap / (d * pairs) if pairs else Fraction(0)
    two_uniform_possible = gap == 0
    ame_possible = n <= 3 or two_uniform_possible
    if d == 1:
        verdict = (
            "Degenerate single-level system: the only invariant state is the "
            "product state and every marginal is trivially maximally mixed; "
            "the counting argument is vacuous here."
        )
    elif n < 4:
        verdict = (
            f"Counting gap {gap} > 0: no invariant state of this shape is "
            f"two-uniform. Absolute maximal entanglement only requires "
            f"{n // 2}-uniformity at n={n}, which invariant states do satisfy."
        )
    else:
        verdict = (
            f"Counting gap {gap} > 0: no invariant state of this shape is "
            f"two-uniform, hence none is absolutely maximally entangled; "
            f"every such state has pair deficit at least {floor}."
        )
    return NoGoCertificate(
        n=n,
        d=d,
        divisible=True,
        copies=copies,
        required=required,
        actual=actual,
        gap=gap,
        deficit_floor=floor,
        two_uniform_possible=two_uniform_possible,
        ame_possible=ame_possible,
        verdict=verdict,
    )


@dataclass(frozen=True)
class CertificateCheck:
    """Outcome of replaying the certificate on sampled subspace states."""

    trials: int
    seed: int
    max_identity_residual: float
    min_pair_deficit: float
    deficit_floor: float
    passed: bool


def verify_certificate_numerically(
    basis: SingletBasis,
    trials: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> CertificateCheck:
    """Replay the counting identity and deficit floor on random subspace states.

    First validates that the basis really spans an invariant subspace
    (balanced supports, orthonormal members, small invariance residual),
    then draws ``trials`` seeded random combinations and checks that the
    counting sum matches the certificate's exact value within ``tol``,
    the pair deficit never drops below the floor minus ``tol``, and the
    pair deficit equals its Werner form (see :func:`_werner_form`),
    read from the same marginals, within ``tol``.  Trials are replayed
    in batches, one batched marginal product per site pair, and checked
    in trial order.

    Raises :class:`CertificateViolationError` on any failure; for an
    honest basis the bounds hold by construction, so a violation means
    the input does not span the subspace it claims to.  Raises
    :class:`ValueError` when ``d`` does not divide ``n`` and
    :class:`MemoryError`, before any check, when one batch of trials
    cannot fit in memory.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if basis.dimension == 0:
        raise ValueError("basis is empty")
    n, d = basis.shape.n, basis.shape.d
    if not basis.shape.divisible:
        raise ValueError(f"d={d} does not divide n={n}: no balanced support to replay on")
    batch = _replay_batch(basis, trials)
    certificate = certify(basis.shape)
    for position, member in enumerate(basis):
        if not member.has_uniform_support():
            raise CertificateViolationError(
                f"basis member {position} does not have balanced support"
            )
    gram_defect = float(np.abs(basis.gram() - np.eye(basis.dimension)).max())
    if gram_defect > max(tol, 1e-12) * 100:
        raise CertificateViolationError(
            f"basis is not orthonormal (Gram defect {gram_defect:.3e})"
        )
    for position, member in enumerate(basis):
        residual = verify_invariance(member, samples=4, seed=seed + position)
        if residual > max(tol, 1e-12) * 100:
            raise CertificateViolationError(
                f"basis member {position} is not collectively invariant "
                f"(residual {residual:.3e})"
            )
    actual = float(certificate.actual)
    floor = float(certificate.deficit_floor)
    rng = np.random.default_rng(seed)
    worst_identity = 0.0
    least_deficit = float("inf")
    for first in range(0, trials, batch):
        states = [basis.random_state(rng) for _ in range(min(batch, trials - first))]
        masses, deficits, swaps = _replay_sums(*joint_amplitudes(states), d)
        figures = zip(states, masses.tolist(), deficits.tolist(), _werner_form(swaps, d).tolist())
        for trial, (state, mass, deficit, werner) in enumerate(figures, first):
            _require_normalized(state, tol)
            identity_residual = abs(mass - actual)
            worst_identity = max(worst_identity, identity_residual)
            if identity_residual > tol:
                raise CertificateViolationError(
                    f"trial {trial}: counting sum off by {identity_residual:.3e}"
                )
            least_deficit = min(least_deficit, deficit)
            if deficit < floor - tol:
                raise CertificateViolationError(
                    f"trial {trial}: pair deficit {deficit:.12g} below floor {floor:.12g}"
                )
            if abs(deficit - werner) > tol:
                raise CertificateViolationError(
                    f"trial {trial}: pair deficit {deficit:.12g} differs from its "
                    f"Werner form {werner:.12g}, so the state is not invariant"
                )
    return CertificateCheck(
        trials=trials,
        seed=seed,
        max_identity_residual=worst_identity,
        min_pair_deficit=least_deficit,
        deficit_floor=floor,
        passed=True,
    )


def _fraction_to_dict(value: Fraction | None) -> dict | None:
    if value is None:
        return None
    return {"num": value.numerator, "den": value.denominator}


def certificate_to_dict(certificate: NoGoCertificate) -> dict:
    """Plain-dict form with exact rationals as ``{"num", "den"}`` pairs."""
    return {
        "n": certificate.n,
        "d": certificate.d,
        "divisible": certificate.divisible,
        "K": certificate.copies,
        "required": _fraction_to_dict(certificate.required),
        "required_decimal": float(certificate.required),
        "actual": _fraction_to_dict(certificate.actual),
        "actual_decimal": None if certificate.actual is None else float(certificate.actual),
        "gap": _fraction_to_dict(certificate.gap),
        "gap_decimal": None if certificate.gap is None else float(certificate.gap),
        "deficit_floor": _fraction_to_dict(certificate.deficit_floor),
        "deficit_floor_decimal": (
            None if certificate.deficit_floor is None else float(certificate.deficit_floor)
        ),
        "two_uniform_possible": certificate.two_uniform_possible,
        "ame_possible": certificate.ame_possible,
        "verdict": certificate.verdict,
    }


def check_to_dict(check: CertificateCheck) -> dict:
    return {
        "trials": check.trials,
        "seed": check.seed,
        "max_identity_residual": check.max_identity_residual,
        "min_pair_deficit": check.min_pair_deficit,
        "deficit_floor": check.deficit_floor,
        "passed": check.passed,
    }
