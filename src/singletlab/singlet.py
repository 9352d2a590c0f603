"""Collectively invariant subspaces and their phase functions.

A pure state of ``n`` particles with ``d`` levels is a *singlet* when
applying the same unitary to every site changes it by at most a global
phase.  Equivalently, the state is annihilated by every collective
traceless generator ``sum_a g^(a)``.  Such states only occupy
multi-indices where every label appears exactly ``n // d`` times, so
the kernel computation here restricts to that balanced support before
solving a small linear system.

The phase picked up under a one-site unitary ``U`` is measured, not
assumed: label permutations are applied exactly and must return the
state times +1 or -1, and Haar-random unitaries are fitted against
integer powers of ``det(U)``.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

import numpy as np

from .states import (
    DEFAULT_TOL,
    LocalOperator,
    PureState,
    SupportProfile,
    SystemShape,
    apply_local,
    enumerate_support,
    joint_amplitudes,
    permutation_sign,
    state_from_dict,
    state_to_dict,
    superpose,
)

__all__ = [
    "PhaseFunctionError",
    "SubspaceRankError",
    "PhaseFunctionReport",
    "SingletBasis",
    "standard_traceless_generators",
    "expected_dimension",
    "haar_unitary",
    "build_singlet_basis",
    "verify_invariance",
    "extract_phase_function",
    "check_sign_relation",
    "basis_to_dict",
    "basis_from_dict",
    "save_basis",
    "load_basis",
]

PHASE_TRIVIAL = "trivial"
PHASE_SIGNUM = "signum"


class PhaseFunctionError(ValueError):
    """Phase measurements do not fit any consistent singlet pattern."""


class SubspaceRankError(RuntimeError):
    """Numerical kernel rank disagrees with the combinatorial dimension count."""


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


def expected_dimension(shape: SystemShape) -> int:
    """Dimension the invariant subspace must have, counted combinatorially.

    The subspace carries one copy of the one-dimensional determinant
    representation per standard Young tableau of the rectangular diagram
    with ``d`` rows and ``n // d`` columns, so its dimension is the hook
    length formula evaluated on that rectangle.  Returns 0 when ``d``
    does not divide ``n`` (no balanced support exists).
    """
    if not shape.divisible:
        return 0
    rows, cols = shape.d, shape.copies
    hooks = 1
    for r in range(rows):
        for c in range(cols):
            hooks *= (rows - r) + (cols - c) - 1
    return math.factorial(shape.n) // hooks


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a Haar-distributed ``d x d`` unitary.

    QR decomposition of a complex Gaussian matrix, with the R diagonal's
    phases absorbed into Q so the distribution is exactly invariant.
    """
    gauss = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(gauss)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


@dataclass(frozen=True)
class SingletBasis:
    """Deterministic orthonormal basis of the invariant subspace."""

    shape: SystemShape
    tolerance: float
    states: tuple[PureState, ...]

    @property
    def dimension(self) -> int:
        return len(self.states)

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, item: int) -> PureState:
        return self.states[item]

    def gram(self) -> np.ndarray:
        """Matrix of pairwise overlaps ``<b_j | b_k>``."""
        if not self.states:
            return np.zeros((0, 0), dtype=complex)
        _, amps = joint_amplitudes(self.states)
        return amps.conj() @ amps.T

    def combine(self, coefficients: Sequence[complex]) -> PureState:
        """Linear combination of basis members."""
        if self.dimension == 0:
            raise ValueError("basis is empty")
        return superpose(coefficients, self.states)

    def random_state(self, rng: np.random.Generator) -> PureState:
        """One normalized state with complex Gaussian coefficients."""
        if self.dimension == 0:
            raise ValueError("basis is empty")
        r = self.dimension
        coeffs = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        coeffs /= np.linalg.norm(coeffs)
        return self.combine(coeffs).normalized()

    def sample(self, count: int, seed: int = 0) -> list[PureState]:
        """Seeded batch of random subspace states."""
        rng = np.random.default_rng(seed)
        return [self.random_state(rng) for _ in range(count)]


def _reduced_echelon(rows: np.ndarray, tol: float) -> np.ndarray:
    """Row-reduce to echelon form with unit leading entries, tolerance pivoting."""
    mat = np.array(rows, dtype=complex)
    pivot_tol = max(tol, 1e-12)
    rank = 0
    for col in range(mat.shape[1]):
        if rank == mat.shape[0]:
            break
        block = np.abs(mat[rank:, col])
        lead = int(np.argmax(block))
        if block[lead] <= pivot_tol:
            continue
        if lead:
            mat[[rank, rank + lead]] = mat[[rank + lead, rank]]
        mat[rank] = mat[rank] / mat[rank, col]
        for other in range(mat.shape[0]):
            if other != rank and mat[other, col] != 0.0:
                mat[other] = mat[other] - mat[other, col] * mat[rank]
        rank += 1
    return mat[:rank]


def _orthonormalize(rows: np.ndarray) -> np.ndarray:
    """Sequential (modified, twice through) Gram-Schmidt over the given rows."""
    out: list[np.ndarray] = []
    for row in rows:
        vec = row.astype(complex)
        for _ in range(2):
            for prev in out:
                vec = vec - (prev.conj() @ vec) * prev
        nrm = float(np.linalg.norm(vec))
        if nrm == 0.0:
            raise SubspaceRankError("dependent vectors survived row reduction")
        out.append(vec / nrm)
    return np.array(out) if out else rows


def _constraint_rows(
    shape: SystemShape, support: list[tuple[int, ...]]
) -> np.ndarray:
    """Stacked matrices of all collective generators on the balanced support.

    Row ``r`` of the result is one image multi-index of one generator;
    column ``c`` corresponds to ``support[c]``.  A state is collectively
    invariant exactly when its coefficient vector over ``support``
    annihilates every row.
    """
    rows: list[np.ndarray] = []
    m = len(support)
    for gen in standard_traceless_generators(shape.d):
        images: dict[tuple[int, ...], dict[int, complex]] = {}
        for col, index in enumerate(support):
            for site, entry in enumerate(index):
                column = gen[:, entry]
                for target in np.flatnonzero(column):
                    image = index[:site] + (int(target),) + index[site + 1 :]
                    bucket = images.setdefault(image, {})
                    bucket[col] = bucket.get(col, 0.0 + 0.0j) + complex(column[target])
        for image in sorted(images):
            row = np.zeros(m, dtype=complex)
            for col, value in images[image].items():
                row[col] = value
            rows.append(row)
    if not rows:
        return np.zeros((0, m), dtype=complex)
    return np.array(rows)


_PRUNE_REL = 1e-14


def build_singlet_basis(shape: SystemShape, tol: float = DEFAULT_TOL) -> SingletBasis:
    """Orthonormal basis of the collectively invariant subspace.

    Enumerates the balanced-occupation support, stacks the collective
    actions of the standard traceless generators, and takes the joint
    kernel by SVD (singular values below ``tol`` times the largest are
    treated as zero).  The kernel is then brought to a deterministic
    form: row reduction orders vectors by their leading support index,
    sequential orthogonalization restores orthonormality, and each
    member is phase-canonicalized.

    Returns an empty basis when ``d`` does not divide ``n``.  Raises
    :class:`SubspaceRankError` if the numerical kernel dimension
    disagrees with :func:`expected_dimension`.
    """
    expected = expected_dimension(shape)
    if not shape.divisible:
        return SingletBasis(shape=shape, tolerance=tol, states=())
    support = enumerate_support(shape, SupportProfile.uniform(shape))
    m = len(support)
    constraints = _constraint_rows(shape, support)
    if constraints.shape[0] == 0:
        null_rows = np.eye(m, dtype=complex)
    else:
        _, singular, vh = np.linalg.svd(constraints)
        top = singular[0] if singular.size else 0.0
        rank = int(np.sum(singular > tol * top)) if top > 0.0 else 0
        null_rows = vh[rank:].conj()
    canonical = _reduced_echelon(null_rows, tol)
    if canonical.shape[0] != null_rows.shape[0]:
        raise SubspaceRankError(
            f"row reduction lost rank: kernel {null_rows.shape[0]}, "
            f"reduced {canonical.shape[0]} at shape {shape}"
        )
    if canonical.shape[0] != expected:
        raise SubspaceRankError(
            f"kernel dimension {canonical.shape[0]} disagrees with the "
            f"combinatorial count {expected} at shape {shape}"
        )
    ortho = _orthonormalize(canonical)
    states = []
    for vec in ortho:
        cutoff = _PRUNE_REL * float(np.abs(vec).max()) if vec.size else 0.0
        kept = {
            support[i]: complex(vec[i])
            for i in range(m)
            if abs(vec[i]) > cutoff
        }
        nrm = math.sqrt(sum(abs(v) ** 2 for v in kept.values()))
        states.append(
            PureState(shape, {k: v / nrm for k, v in kept.items()}, canonicalize=True)
        )
    return SingletBasis(shape=shape, tolerance=tol, states=tuple(states))


def verify_invariance(state: PureState, samples: int = 20, seed: int = 0) -> float:
    """Worst residual of phase covariance over Haar-sampled unitaries.

    For each sample ``U`` the state is mapped through ``U`` on every
    site, the best-fitting phase is the overlap with the original state,
    and the residual is the norm of what that phase cannot explain.
    Returns the maximum residual; a singlet gives roundoff, anything
    else gives an order-one value.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if not state.is_normalized(DEFAULT_TOL):
        raise ValueError(f"state norm is {state.norm():.12g}, expected 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        op = LocalOperator.unitary(haar_unitary(state.shape.d, rng))
        image = apply_local(state, op)
        phase = state.overlap(image)
        worst = max(worst, image.distance(state.scaled(phase)))
    return worst


@dataclass(frozen=True)
class PhaseFunctionReport:
    """Measured transformation phases of a singlet state.

    ``permutation_phase`` records how label permutations act: "trivial"
    (always +1) or "signum" (the permutation sign); the dichotomy leaves
    no third option.  ``det_power`` is the integer ``m`` with
    ``U`` acting as ``det(U)**m``, and ``residual`` the worst deviation
    any measurement left unexplained.
    """

    permutation_phase: str
    det_power: int
    residual: float


def extract_phase_function(
    state: PureState,
    samples: int = 10,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> PhaseFunctionReport:
    """Measure how unitaries and label permutations rephase a singlet.

    Every adjacent label transposition is applied exactly; each must
    return the state times +1 or -1 and all must agree on the sign.
    Haar samples (with the determinant phase conditioned away from 1 so
    the principal logarithm is unambiguous) then fit the integer power
    ``m`` in ``det(U)**m``.  The two measurements must agree in parity:
    the sign under transpositions is minus exactly when ``m`` is odd.

    Raises :class:`PhaseFunctionError` whenever any measurement is
    inconsistent, which signals the input is not a singlet.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if not state.is_normalized(tol):
        raise ValueError(f"state norm is {state.norm():.12g}, expected 1")
    d = state.shape.d
    residual = 0.0
    sign: int | None = None
    for k in range(d - 1):
        swap = list(range(d))
        swap[k], swap[k + 1] = swap[k + 1], swap[k]
        image = apply_local(state, LocalOperator.basis_permutation(swap))
        gap_plus = image.distance(state)
        gap_minus = image.distance(state.scaled(-1.0))
        if min(gap_plus, gap_minus) > tol:
            raise PhaseFunctionError(
                f"transposition ({k},{k + 1}) returns neither +state nor -state "
                f"(gaps {gap_plus:.3e}, {gap_minus:.3e})"
            )
        this = 1 if gap_plus <= gap_minus else -1
        residual = max(residual, min(gap_plus, gap_minus))
        if sign is None:
            sign = this
        elif sign != this:
            raise PhaseFunctionError("adjacent transpositions disagree on the sign")
    permutation_phase = PHASE_SIGNUM if sign == -1 else PHASE_TRIVIAL

    rng = np.random.default_rng(seed)
    # Determinant argument theta with K * theta <= 2 < pi for K = n // d.
    target = min(0.35, 2.0 / max(1, state.shape.n // d))
    power: int | None = None
    for _ in range(samples):
        u = haar_unitary(d, rng)
        det_arg = cmath.phase(complex(np.linalg.det(u)))
        u = u * cmath.exp(1j * (target - det_arg) / d)
        image = apply_local(state, LocalOperator.unitary(u))
        overlap = state.overlap(image)
        if abs(abs(overlap) - 1.0) > max(tol, 1e-10) * 10:
            raise PhaseFunctionError(
                f"state is not phase-covariant: |overlap| = {abs(overlap):.12g}"
            )
        det = complex(np.linalg.det(u))
        estimate = cmath.log(overlap).imag / cmath.log(det).imag
        fitted = round(estimate)
        if abs(estimate - fitted) > 1e-6:
            raise PhaseFunctionError(f"det-power estimate {estimate} is not near an integer")
        if power is None:
            power = fitted
        elif fitted != power:
            raise PhaseFunctionError(f"det-power fit flipped from {power} to {fitted}")
        residual = max(residual, abs(overlap - det**fitted))
    assert power is not None
    if residual > max(tol, 1e-10) * 10:
        raise PhaseFunctionError(f"phase fit residual {residual:.3e} too large")
    if d >= 2 and (permutation_phase == PHASE_SIGNUM) != (power % 2 == 1):
        raise PhaseFunctionError(
            f"permutation phase {permutation_phase} contradicts det power {power}"
        )
    return PhaseFunctionReport(
        permutation_phase=permutation_phase, det_power=int(power), residual=residual
    )


def check_sign_relation(
    state: PureState,
    perm: Sequence[int],
    permutation_phase: str,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Whether relabeling amplitudes by ``perm`` multiplies them by the claimed phase.

    Checks ``amplitude[perm(i)] == f(perm) * amplitude[i]`` for every
    stored multi-index, where ``f`` is +1 throughout for the "trivial"
    phase and the permutation sign for "signum".
    """
    if permutation_phase not in (PHASE_TRIVIAL, PHASE_SIGNUM):
        raise ValueError(f"unknown permutation phase {permutation_phase!r}")
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(state.shape.d)):
        raise ValueError(f"{perm} is not a permutation of the {state.shape.d} labels")
    factor = 1.0 if permutation_phase == PHASE_TRIVIAL else float(permutation_sign(perm))
    # image[perm(i)] = amplitude[i]; compare amplitude[perm(i)] at every stored i
    image = apply_local(state, LocalOperator.basis_permutation(perm))
    _, (amps, moved) = joint_amplitudes([state, image])
    return bool(np.all(np.abs(amps - factor * moved)[moved != 0.0] <= tol))


def all_label_permutations(d: int):
    """All ``d!`` label permutations in one-line notation."""
    return (tuple(p) for p in permutations(range(d)))


# --- JSON interface -------------------------------------------------------


def basis_to_dict(basis: SingletBasis, seed: int = 0, phase_samples: int = 8) -> dict:
    """Plain-dict form: metadata plus the member states.

    The permutation phase in the metadata is measured from the first
    member (null for an empty basis).
    """
    shape = basis.shape
    phase = None
    if basis.dimension:
        phase = extract_phase_function(
            basis.states[0], samples=phase_samples, seed=seed, tol=basis.tolerance
        ).permutation_phase
    return {
        "n": shape.n,
        "d": shape.d,
        "K": shape.copies if shape.divisible else None,
        "dimension": basis.dimension,
        "tolerance": basis.tolerance,
        "permutation_phase": phase,
        "seed": seed,
        "states": [state_to_dict(state) for state in basis.states],
    }


def basis_from_dict(obj: dict) -> SingletBasis:
    try:
        shape = SystemShape(int(obj["n"]), int(obj["d"]))
        tol = float(obj["tolerance"])
        states = tuple(state_from_dict(entry) for entry in obj["states"])
        dimension = int(obj["dimension"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed basis document: {exc}") from exc
    if dimension != len(states):
        raise ValueError(
            f"malformed basis document: dimension {dimension} but {len(states)} states"
        )
    for state in states:
        if state.shape != shape:
            raise ValueError("malformed basis document: member shape mismatch")
    return SingletBasis(shape=shape, tolerance=tol, states=states)


def save_basis(basis: SingletBasis, path: str, seed: int = 0) -> None:
    from . import _json

    _json.dump(basis_to_dict(basis, seed=seed), path)


def load_basis(path: str) -> SingletBasis:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError("malformed basis document: expected a JSON object")
    return basis_from_dict(document)
