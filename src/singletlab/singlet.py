"""Collectively invariant subspaces and their phase functions.

A pure state of ``n`` particles with ``d`` levels is a *singlet* when
applying the same unitary to every site changes it by at most a global
phase.  Equivalently, the state is annihilated by every collective
traceless generator ``sum_a g^(a)``.  Such states only occupy
multi-indices where every label appears exactly ``n // d`` times.  The
subspace is spanned by products of ``d``-site determinant states, one
per standard Young tableau of the ``d x n // d`` rectangle; the basis
here is built from those integer vectors exactly, with no numerical
kernel computation, and held as one matrix: every member's amplitudes
on the shared balanced support.

The phase picked up under a one-site unitary ``U`` is measured, not
assumed: label permutations are applied exactly and must return the
state times +1 or -1, and Haar-random unitaries are fitted against
integer powers of ``det(U)``.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from decimal import Decimal
from itertools import permutations
from typing import Sequence

import numpy as np

from . import _json
from .states import (
    DEFAULT_TOL,
    LocalOperator,
    PureState,
    SupportProfile,
    SystemShape,
    _check_dense_memory,
    _integer_field,
    _local_image,
    _canonical_phase,
    _require_memory,
    _state_document,
    _weights,
    apply_local,
    enumerate_support,
    joint_amplitudes,
    permutation_sign,
    state_from_dict,
    state_to_dict,
    # Unused here; perfbench's tracer wraps superpose through this binding.
    superpose,  # noqa: F401
)

__all__ = [
    "PhaseFunctionError",
    "SubspaceRankError",
    "PhaseFunctionReport",
    "SingletBasis",
    "standard_traceless_generators",
    "expected_dimension",
    "haar_unitary",
    "check_memory",
    "build_singlet_basis",
    "verify_invariance",
    "extract_phase_function",
    "check_sign_relation",
    "measure_phase",
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
    """The tableau count disagrees with the hook-length dimension, or a
    Gram-Schmidt pivot ratio falls below ``tol``."""


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


@dataclass(frozen=True, init=False, eq=False)
class SingletBasis:
    """Deterministic orthonormal basis of the invariant subspace.

    The members share one support: the sorted digit rows of
    :attr:`support`, on which row ``k`` of :attr:`amplitudes` holds
    member ``k`` (0 where it stores nothing); both are read-only.  The
    constructor aligns ``states`` on their joint support.  Members are
    :class:`PureState` views made on demand.
    """

    shape: SystemShape
    tolerance: float
    support: np.ndarray
    amplitudes: np.ndarray

    def __init__(self, shape: SystemShape, tolerance: float, states: Sequence[PureState]) -> None:
        for state in states:
            if state.shape != shape:
                raise ValueError(f"member shape {state.shape} differs from basis shape {shape}")
        if states:
            support, amplitudes = joint_amplitudes(states)
        else:
            support, amplitudes = np.zeros((0, shape.n), np.uint8), np.zeros((0, 0), complex)
        self._assign(shape, tolerance, support, amplitudes)

    @classmethod
    def _from_arrays(cls, shape, tolerance, support, amplitudes) -> "SingletBasis":
        """Construct from sorted distinct support rows and the aligned member rows."""
        basis = cls.__new__(cls)
        basis._assign(shape, tolerance, support, amplitudes)
        return basis

    def _assign(self, shape, tolerance, support, amplitudes) -> None:
        support.setflags(write=False)
        amplitudes.setflags(write=False)
        # The dataclass is frozen; its fields are set once, here.
        vars(self).update(shape=shape, tolerance=tolerance, support=support, amplitudes=amplitudes)

    @property
    def dimension(self) -> int:
        return self.amplitudes.shape[0]

    def __len__(self) -> int:
        return self.dimension

    def __getitem__(self, item: int) -> PureState:
        vector = self.amplitudes[operator.index(item)]
        kept = np.flatnonzero(vector)
        return PureState._from_arrays(self.shape, self.support[kept], vector[kept])

    @property
    def states(self) -> tuple[PureState, ...]:
        """Every member as a :class:`PureState` view, in order."""
        return tuple(self)

    def gram(self) -> np.ndarray:
        """Matrix of pairwise overlaps ``<b_j | b_k>``."""
        return self.amplitudes.conj() @ self.amplitudes.T

    def combine(self, coefficients: Sequence[complex]) -> PureState:
        """Linear combination of basis members."""
        if self.dimension == 0:
            raise ValueError("basis is empty")
        total = np.asarray(coefficients, dtype=complex) @ self.amplitudes
        return PureState._from_arrays(self.shape, self.support, total, canonicalize=True)

    def random_state(self, rng: np.random.Generator) -> PureState:
        """One normalized state with complex Gaussian coefficients."""
        r = self.dimension
        coeffs = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        coeffs /= np.linalg.norm(coeffs)
        return self.combine(coeffs).normalized()

    def sample(self, count: int, seed: int = 0) -> list[PureState]:
        """Seeded batch of random subspace states."""
        rng = np.random.default_rng(seed)
        return [self.random_state(rng) for _ in range(count)]


def check_memory(shape: SystemShape, document: bool = False) -> None:
    """Raise :class:`MemoryError` before building a basis that cannot fit.

    Counts the support list (a tuple and a list slot per multi-index,
    plus its int64 array) and four floats per ``dimension x support``
    entry: the echelon rows, ``Q`` and LAPACK's working copies during
    the QR, more than ``Q`` and the one complex amplitude matrix kept
    after it (the basis holds no per-member digit rows), against the
    soft address-space limit when one is set and physical memory
    otherwise.  With ``document`` it also counts
    the artifact of :func:`basis_to_dict` and its JSON text: a dict, an
    ``n``-entry index list and two floats per amplitude, about
    ``300 + 8 n`` bytes, and up to 200 bytes more while encoding.
    :func:`save_basis` builds no such dicts and holds the text of one
    member at a time, so that term over-counts what ``subspace`` uses;
    it is kept because it is what refuses (12,3) before the build.
    Shapes ``d`` does not divide build nothing and always pass.
    """
    if not shape.divisible:
        return
    dimension = expected_dimension(shape)
    support = SupportProfile.uniform(shape).size()
    per_entry = 4 * 8 + (500 + 8 * shape.n if document else 0)
    need = support * (48 + 16 * shape.n) + dimension * support * per_entry
    what = "the basis and its JSON document" if document else "the basis"
    # Counts past 10**15 read in scientific notation; Decimal holds those a float cannot.
    support, dimension = (f"{Decimal(x):.3e}" if x > 10**15 else x for x in (support, dimension))
    _require_memory(need, f"{what} at shape {shape} (support {support}, dimension {dimension})")


_PRUNE_REL = 1e-14


def build_singlet_basis(shape: SystemShape, tol: float = DEFAULT_TOL) -> SingletBasis:
    """Orthonormal basis of the collectively invariant subspace.

    Each standard tableau of the ``d x n // d`` rectangle gives one
    invariant: the product, over the tableau's columns, of the ``d``-site
    determinant state on that column's sites.  Its lexicographically
    first multi-index is the tableau's row word, with amplitude 1, and
    the words are distinct, so the products are in echelon form with
    unit leading entries.  Integer back-substitution brings them to the
    reduced row echelon form, Gram-Schmidt in that order (one QR)
    restores orthonormality, and each member is phase-canonicalized.

    ``tol`` is the smallest accepted Gram-Schmidt pivot relative to the
    norm of its echelon row.  Returns an empty basis when ``d`` does not
    divide ``n``.  Raises :class:`SubspaceRankError` when a pivot falls
    below ``tol`` or the tableau count disagrees with
    :func:`expected_dimension`, and :class:`MemoryError`, before any
    work, when the basis would not fit in memory.
    """
    expected = expected_dimension(shape)
    if not shape.divisible:
        return SingletBasis(shape=shape, tolerance=tol, states=())
    check_memory(shape)
    support = np.array(enumerate_support(shape, SupportProfile.uniform(shape)))
    # Standard tableaux as row words (word[s] is the row holding site s):
    # the balanced words in which no prefix holds a row more often than
    # the row above it.
    standard = np.ones(len(support), dtype=bool)
    for row in range(1, shape.d):
        above = np.cumsum(support == row - 1, axis=1)
        standard &= np.all(np.cumsum(support == row, axis=1) <= above, axis=1)
    pivots = np.flatnonzero(standard)
    words = support[pivots]
    if len(words) != expected:
        raise SubspaceRankError(
            f"{len(words)} standard tableaux disagree with the "
            f"combinatorial count {expected} at shape {shape}"
        )
    d, dim = shape.d, len(words)
    # Multi-indices are compared by their base-d codes; the support is sorted.
    weights = _weights(d, shape.n)
    codes = support @ weights
    # columns[t, c, r]: the site in row r, column c of tableau t
    columns = np.stack(
        [np.nonzero(words == row)[1].reshape(dim, shape.copies) for row in range(d)], axis=-1
    )
    perms = np.array(list(all_label_permutations(d)))
    perm_signs = np.array([permutation_sign(p) for p in perms], dtype=float)
    # column_codes[t, c, p]: code share of labels perms[p] on column c of tableau t
    column_codes = weights[columns] @ perms.T
    terms = np.zeros((dim, 1), dtype=np.int64)
    signs = np.ones(1)
    for col in range(shape.copies):
        terms = (terms[:, :, None] + column_codes[:, None, col, :]).reshape(dim, -1)
        signs = np.outer(signs, perm_signs).ravel()
    echelon = np.zeros((dim, len(support)))
    echelon[np.arange(dim)[:, None], np.searchsorted(codes, terms)] = signs
    # Amplitude of word t in product r: unit upper triangular.
    triangle = echelon[:, pivots]
    for row in range(dim - 2, -1, -1):
        echelon[row] -= triangle[row, row + 1 :] @ echelon[row + 1 :]
    ortho, upper = np.linalg.qr(echelon.T)
    ratios = np.abs(np.diagonal(upper)) / np.linalg.norm(echelon, axis=1)
    if ratios.min() < tol:
        raise SubspaceRankError(
            f"Gram-Schmidt pivot ratio {ratios.min():.3g} is below tol {tol:g} at shape {shape}"
        )
    del echelon
    # Every balanced word lies in some column-determinant product, so no
    # support column is zero in every member.
    amplitudes = np.zeros((dim, len(support)), dtype=complex)
    for row, vec in zip(amplitudes, ortho.T):
        kept = np.flatnonzero(np.abs(vec) > _PRUNE_REL * np.abs(vec).max())
        values = vec[kept] / np.linalg.norm(vec[kept])
        row[kept] = _canonical_phase(values.astype(complex))
    digits = support.astype(np.min_scalar_type(d - 1))
    return SingletBasis._from_arrays(shape, tol, digits, amplitudes)


def _dense_for_sampling(state: PureState, samples: int, tol: float) -> np.ndarray:
    """Dense ``d**n`` vector of a normalized state about to be measured ``samples`` times."""
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if not state.is_normalized(tol):
        raise ValueError(f"state norm is {state.norm():.12g}, expected 1")
    _check_dense_memory(state.shape)
    return state.to_dense()


def verify_invariance(state: PureState, samples: int = 20, seed: int = 0) -> float:
    """Worst residual of phase covariance over Haar-sampled unitaries.

    The state is expanded once into its dense ``d**n`` vector ``psi``.
    For each sample ``U`` the image ``U^(x)n psi`` is formed with one
    GEMM per site, the best-fitting phase is ``<psi|image>``, and the
    residual is ``||image - phase psi||``, the part that phase cannot
    explain.  Returns the maximum residual; a singlet gives roundoff,
    anything else gives an order-one value.  Raises
    :class:`MemoryError` before allocating when about ``64 * d**n`` bytes
    (four dense vectors) exceed the available memory.
    """
    psi = _dense_for_sampling(state, samples, DEFAULT_TOL)
    n, d = state.shape.n, state.shape.d
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        image = _local_image(psi, haar_unitary(d, rng), n, d)
        phase = np.vdot(psi, image)
        worst = max(worst, float(np.linalg.norm(image - phase * psi)))
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

    The state is expanded once into its dense ``d**n`` vector ``psi``.
    Every adjacent label transposition is applied to it exactly, by
    relabeling the stored multi-indices; each must return ``psi`` times
    +1 or -1 and all must agree on the sign.  Haar samples (with the
    determinant phase conditioned away from 1 so the principal logarithm
    is unambiguous) then read ``<psi|U^(x)n psi>``, one GEMM per site,
    and fit the integer power ``m`` in ``det(U)**m``.  The two
    measurements must agree in parity: the sign under transpositions is
    minus exactly when ``m`` is odd.

    Raises :class:`PhaseFunctionError` whenever any measurement is
    inconsistent, which signals the input is not a singlet, and
    :class:`MemoryError` before allocating when about ``64 * d**n``
    bytes (four dense vectors) exceed the available memory.
    """
    psi = _dense_for_sampling(state, samples, tol)
    n, d = state.shape.n, state.shape.d
    weights = _weights(d, n)
    residual = 0.0
    sign: int | None = None
    for k in range(d - 1):
        swap = np.arange(d)
        swap[k], swap[k + 1] = k + 1, k
        image = np.zeros_like(psi)
        image[swap[state.digits] @ weights] = state.values
        gap_plus = float(np.linalg.norm(image - psi))
        gap_minus = float(np.linalg.norm(image + psi))
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
    target = min(0.35, 2.0 / max(1, n // d))
    power: int | None = None
    for _ in range(samples):
        u = haar_unitary(d, rng)
        det_arg = cmath.phase(complex(np.linalg.det(u)))
        u = u * cmath.exp(1j * (target - det_arg) / d)
        overlap = complex(np.vdot(psi, _local_image(psi, u, n, d)))
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

# Haar draws behind the permutation phase recorded in basis documents.
_PHASE_SAMPLES = 8


def measure_phase(basis: SingletBasis, seed: int = 0) -> str | None:
    """Permutation phase of the first member, or None for an empty basis.

    Measured with :func:`extract_phase_function` from ``_PHASE_SAMPLES``
    Haar draws seeded with ``seed``; it is the ``permutation_phase`` of
    the basis documents.
    """
    if not basis.dimension:
        return None
    return extract_phase_function(basis[0], samples=_PHASE_SAMPLES, seed=seed).permutation_phase


def _basis_document(basis: SingletBasis, seed: int, phase: str | None, states) -> dict:
    shape = basis.shape
    return {
        "n": shape.n,
        "d": shape.d,
        "K": shape.copies if shape.divisible else None,
        "dimension": basis.dimension,
        "tolerance": basis.tolerance,
        "permutation_phase": phase,
        "seed": seed,
        "states": states,
    }


def basis_to_dict(basis: SingletBasis, seed: int = 0) -> dict:
    """Plain-dict form: metadata plus the member states.

    The permutation phase in the metadata is :func:`measure_phase` of the
    basis (null for an empty basis).
    """
    phase = measure_phase(basis, seed=seed)
    return _basis_document(basis, seed, phase, [state_to_dict(state) for state in basis.states])


def basis_from_dict(obj: dict) -> SingletBasis:
    """Parse the JSON-dict form back into a basis.

    ``n``, ``d`` and ``dimension`` must be JSON integers and
    ``tolerance`` a JSON number; other values are rejected, not
    converted.
    """
    try:
        shape = SystemShape(_integer_field(obj, "n"), _integer_field(obj, "d"))
        if type(obj["tolerance"]) not in (int, float):
            raise TypeError(f"'tolerance' must be a number, got {obj['tolerance']!r}")
        tol = float(obj["tolerance"])
        states = tuple(state_from_dict(entry) for entry in obj["states"])
        dimension = _integer_field(obj, "dimension")
        if dimension != len(states):
            raise ValueError(f"dimension {dimension} but {len(states)} states")
        return SingletBasis(shape=shape, tolerance=tol, states=states)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed basis document: {exc}") from exc


def save_basis(basis: SingletBasis, path: str, seed: int = 0, phase: str | None = None) -> None:
    """Write the file whose text is ``_json.dumps(basis_to_dict(basis, seed))``.

    Members are encoded from the support and amplitude matrix, with each
    index row's text made once, and written one at a time.
    ``phase`` is the :func:`measure_phase` of the basis when the caller
    has it already; otherwise it is measured here.
    """
    if phase is None:
        phase = measure_phase(basis, seed=seed)
    lists = _json.amplitude_lists(basis.support, basis.amplitudes)
    members = (_json.encode(_state_document(basis.shape, entries)) for entries in lists)
    _json.dump(_basis_document(basis, seed, phase, members), path)


def load_basis(path: str) -> SingletBasis:
    return basis_from_dict(_json.load(path))
