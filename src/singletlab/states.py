"""Multiparticle pure states and one-site operations.

States of ``n`` particles with ``d`` levels each keep their nonzero
amplitudes as numpy arrays: a small-int matrix with one multi-index
(tuple of site labels) per row, and an aligned complex vector.
Everything downstream, from collective-invariance checks to subsystem
marginals, is built on the handful of primitives defined here:

* :class:`SystemShape`, :class:`SupportProfile`: particle count, level
  count, and per-label occupation bookkeeping.
* :class:`PureState`: an immutable state with a canonical global phase,
  a read-only tuple-keyed view of its amplitudes, JSON
  (de)serialization, and dense-vector bridges.
* :class:`LocalOperator`: a one-site operator applied identically to
  every site, with exact fast paths for basis permutations and
  diagonal phases.
* :func:`apply_local`, :func:`permute_particles`, :func:`apply_collective`,
  :func:`partial_trace`, :func:`cross_marginal`: the operations the rest
  of the package uses.  Every marginal comes from one kernel that
  scatters amplitudes into a (subsystem index) x (complement row)
  factor ``F``.  A state's own marginal is ``F @ F^H``; only
  :func:`cross_marginal` forms cross blocks ``X @ Y^H``.  The
  k-uniformity deviations take a chunk of subsets at once and split
  ``F`` by the kept sites' occupation numbers, forming only the
  diagonal blocks of a state with one support profile.  No ``d**n``
  vector is formed.

Sites are indexed ``0 .. n-1`` and levels are labeled ``0 .. d-1``
throughout.  Multi-indices compare lexicographically, which fixes the
ordering used for serialization and for canonical phase choices.
"""

from __future__ import annotations

import cmath
import math
import os
import resource
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from decimal import Decimal
from itertools import chain, combinations, islice
from types import MappingProxyType

import numpy as np

from . import _json

__all__ = [
    "DEFAULT_TOL",
    "SystemShape",
    "SupportProfile",
    "PureState",
    "LocalOperator",
    "MarginalMatrix",
    "enumerate_support",
    "apply_local",
    "permute_particles",
    "apply_collective",
    "partial_trace",
    "cross_marginal",
    "joint_amplitudes",
    "superpose",
    "state_to_dict",
    "state_from_dict",
    "save_state",
    "load_state",
]

#: Default numerical tolerance for every approximate predicate in the
#: package.  Single knob; operations take an explicit ``tol`` argument
#: that defaults to this value.
DEFAULT_TOL = 1e-9


@dataclass(frozen=True, order=True)
class SystemShape:
    """Number of particles ``n`` and levels per particle ``d``."""

    n: int
    d: int

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and isinstance(self.d, int)):
            raise TypeError("n and d must be integers")
        if self.n < 1 or self.d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={self.n}, d={self.d}")

    @property
    def divisible(self) -> bool:
        """Whether the level count divides the particle count."""
        return self.n % self.d == 0

    @property
    def copies(self) -> int:
        """Occupation ``n // d`` each label must carry on a balanced support.

        Only defined when ``d`` divides ``n``.
        """
        if not self.divisible:
            raise ValueError(f"d={self.d} does not divide n={self.n}")
        return self.n // self.d

    @property
    def total_dimension(self) -> int:
        return self.d**self.n

    def validate_index(self, index: Sequence[int]) -> tuple[int, ...]:
        """Check one multi-index against this shape and return it as a tuple."""
        idx = tuple(index)
        if len(idx) != self.n:
            raise ValueError(f"multi-index {idx} has length {len(idx)}, expected {self.n}")
        for entry in idx:
            if not isinstance(entry, (int, np.integer)) or isinstance(entry, bool):
                raise TypeError(f"multi-index entries must be integers, got {entry!r}")
            if not 0 <= entry < self.d:
                raise ValueError(f"entry {entry} out of range for d={self.d} in {idx}")
        return tuple(int(e) for e in idx)


@dataclass(frozen=True)
class SupportProfile:
    """Occupation numbers: how often each label appears in a multi-index."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise ValueError(f"occupation numbers must be nonnegative, got {counts}")
        object.__setattr__(self, "counts", counts)

    @property
    def d(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @classmethod
    def of_index(cls, index: Sequence[int], d: int) -> "SupportProfile":
        """Count label occurrences in one multi-index."""
        counts = [0] * d
        for entry in index:
            counts[entry] += 1
        return cls(tuple(counts))

    @classmethod
    def uniform(cls, shape: SystemShape) -> "SupportProfile":
        """The balanced profile where every label appears ``n // d`` times."""
        return cls((shape.copies,) * shape.d)

    def is_uniform(self) -> bool:
        return len(set(self.counts)) <= 1

    def size(self) -> int:
        """Number of multi-indices realizing this profile (multinomial)."""
        out = math.factorial(self.total)
        for c in self.counts:
            out //= math.factorial(c)
        return out


def enumerate_support(shape: SystemShape, profile: SupportProfile) -> list[tuple[int, ...]]:
    """All multi-indices with the given occupation numbers, in lexicographic order.

    Parameters
    ----------
    shape : SystemShape
        System to enumerate over; ``profile`` must have one count per level
        and the counts must sum to ``shape.n``.
    profile : SupportProfile
        Target occupation numbers.

    Returns
    -------
    list of tuple of int
        Sorted lexicographically; length equals the multinomial
        coefficient ``n! / prod_k(counts[k]!)``.
    """
    if profile.d != shape.d:
        raise ValueError(f"profile has {profile.d} labels, shape has d={shape.d}")
    if profile.total != shape.n:
        raise ValueError(f"profile sums to {profile.total}, expected n={shape.n}")
    # Level by level: np.nonzero of the remaining counts lists each word's
    # possible next labels, rows first and labels in increasing order, so
    # the extended words stay in lexicographic order.
    words = np.zeros((1, 0), dtype=np.intp)
    remaining = np.array([profile.counts], dtype=np.intp)
    for _ in range(shape.n):
        rows, labels = np.nonzero(remaining)
        words = np.column_stack((words[rows], labels))
        remaining = remaining[rows]
        remaining[np.arange(len(rows)), labels] -= 1
    return list(zip(*words.T.tolist()))


# --- index arrays ----------------------------------------------------------


def _weights(d: int, width: int) -> np.ndarray:
    """Place values that encode ``width`` base-``d`` digits as one int64."""
    return d ** np.arange(width - 1, -1, -1, dtype=np.int64)


def _word_digits(d: int, width: int) -> int:
    """Digits that :func:`_group_rows` packs into one sort word."""
    return max(1, width if d == 1 else int(62 // math.log2(d)))


def _group_rows(rows: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a digit matrix, in lexicographic order.

    Returns ``(inverse, first)``: ``rows[first]`` are the distinct rows and
    ``inverse[i]`` is the position of ``rows[i]`` among them.  Rows are
    packed base ``d`` into int64 words below ``2**62``: one word when the
    whole row fits, several compared in order when not (as at n = 70).
    """
    count, width = rows.shape
    step = _word_digits(d, width)
    starts = range(0, max(width, 1), step)
    keys = np.stack([rows[:, lo : lo + step] @ _weights(d, min(step, width - lo)) for lo in starts])
    order = np.lexsort(keys[::-1])
    ordered = keys[:, order]
    fresh = np.ones(count, dtype=bool)
    fresh[1:] = np.any(ordered[:, 1:] != ordered[:, :-1], axis=0)
    inverse = np.empty(count, dtype=np.intp)
    inverse[order] = np.cumsum(fresh) - 1
    return inverse, order[fresh]


def _index_matrix(shape: SystemShape, indices: list) -> np.ndarray:
    """Validate multi-indices and stack them as rows of a small-int matrix."""
    rows = np.array(indices) if indices else np.zeros((0, shape.n), dtype=np.int64)
    if rows.dtype.kind not in "iu":
        raise TypeError(f"multi-index entries must be integers, got {rows.dtype} entries")
    if rows.ndim != 2 or rows.shape[1] != shape.n:
        raise ValueError(f"every multi-index must have length {shape.n}")
    bad = np.flatnonzero(np.any((rows < 0) | (rows >= shape.d), axis=1))
    if bad.size:
        raise ValueError(f"entry out of range for d={shape.d} in {tuple(rows[bad[0]].tolist())}")
    return rows


def _common_shape(states: Sequence["PureState"]) -> SystemShape:
    if not states:
        raise ValueError("need at least one state")
    shape = states[0].shape
    for state in states:
        if state.shape != shape:
            raise ValueError(f"shape mismatch: {state.shape} vs {shape}")
    return shape


def _canonical_phase(values: np.ndarray) -> np.ndarray:
    """``values`` rephased so that the first is real and positive."""
    if not values.size or (values[0].imag == 0.0 and values[0].real > 0.0):
        return values
    lead = complex(values[0])
    phase = lead / abs(lead)
    # Python's complex division, not numpy's multiply-by-reciprocal,
    # so canonical amplitudes keep the same bits in written files.
    values = np.array([value / phase for value in values.tolist()])
    values[0] = abs(lead)
    return values


class PureState:
    """Immutable pure state.

    Parameters
    ----------
    shape : SystemShape
        Particle and level counts.
    amplitudes : mapping from index tuples to complex
        Only nonzero entries are stored; exact zeros are dropped.
    canonicalize : bool, keyword only
        When true (the default for user-facing construction) the global
        phase is fixed so the amplitude on the lexicographically
        smallest stored multi-index is real and positive.  Operator
        applications construct results with ``canonicalize=False`` so
        that overall signs and phases produced by the operator survive
        and can be measured.
    """

    __slots__ = ("_shape", "_digits", "_values", "_view")

    def __init__(
        self,
        shape: SystemShape,
        amplitudes: Mapping[Sequence[int], complex],
        *,
        canonicalize: bool = True,
    ) -> None:
        items = list(amplitudes.items())
        digits = _index_matrix(shape, [index for index, _ in items])
        values = np.array([complex(value) for _, value in items], dtype=complex)
        self._assign(shape, digits, values, canonicalize)

    @classmethod
    def _from_arrays(
        cls, shape: SystemShape, digits: np.ndarray, values: np.ndarray, canonicalize: bool = False
    ) -> "PureState":
        """Construct from already validated digit rows and aligned amplitudes."""
        state = cls.__new__(cls)
        state._assign(shape, digits, values, canonicalize)
        return state

    def _assign(
        self, shape: SystemShape, digits: np.ndarray, values: np.ndarray, canonicalize: bool
    ) -> None:
        inverse, first = _group_rows(digits, shape.d)
        if first.size != values.size:
            repeated = first[np.flatnonzero(np.bincount(inverse) > 1)[0]]
            raise ValueError(f"duplicate multi-index {tuple(digits[repeated].tolist())}")
        first = first[values[first] != 0.0]
        digits = digits[first].astype(np.min_scalar_type(shape.d - 1))
        values = _canonical_phase(values[first]) if canonicalize else values[first]
        digits.setflags(write=False)
        values.setflags(write=False)
        self._shape = shape
        self._digits = digits
        self._values = values
        self._view: Mapping[tuple[int, ...], complex] | None = None

    @property
    def shape(self) -> SystemShape:
        return self._shape

    @property
    def digits(self) -> np.ndarray:
        """Stored multi-indices as rows of a read-only integer array, in lexicographic order."""
        return self._digits

    @property
    def values(self) -> np.ndarray:
        """Stored (nonzero) amplitudes as a read-only vector aligned with :attr:`digits`."""
        return self._values

    @property
    def amplitudes(self) -> Mapping[tuple[int, ...], complex]:
        """Read-only view of the stored (nonzero) amplitudes."""
        if self._view is None:
            keys = map(tuple, self._digits.tolist())
            self._view = MappingProxyType(dict(zip(keys, self._values.tolist())))
        return self._view

    def support(self) -> list[tuple[int, ...]]:
        """Stored multi-indices in lexicographic order."""
        return [tuple(row) for row in self._digits.tolist()]

    def amplitude(self, index: Sequence[int]) -> complex:
        return self.amplitudes.get(self._shape.validate_index(index), 0.0 + 0.0j)

    def norm(self) -> float:
        return float(np.linalg.norm(self._values))

    def is_normalized(self, tol: float = DEFAULT_TOL) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def normalized(self) -> "PureState":
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero state")
        return PureState._from_arrays(self._shape, self._digits, self._values / nrm)

    def scaled(self, factor: complex) -> "PureState":
        """Multiply every amplitude by ``factor`` (no phase canonicalization)."""
        return PureState._from_arrays(self._shape, self._digits, self._values * complex(factor))

    def overlap(self, other: "PureState") -> complex:
        """Inner product ``<self|other>`` (conjugate-linear in ``self``)."""
        _, amps = joint_amplitudes([self, other])
        return complex(np.vdot(amps[0], amps[1]))

    def distance(self, other: "PureState") -> float:
        """Euclidean distance between amplitude vectors."""
        _, amps = joint_amplitudes([self, other])
        return float(np.linalg.norm(amps[0] - amps[1]))

    def common_profile(self) -> SupportProfile | None:
        """The occupation profile shared by every stored index, or None.

        Returns the profile when all stored multi-indices carry identical
        per-label counts, which is the support pattern collective
        diagonal-phase invariance enforces.
        """
        counts = np.sum(self._digits[:, :, None] == np.arange(self._shape.d), axis=1)
        if not counts.size or np.any(counts != counts[0]):
            return None
        return SupportProfile(tuple(counts[0].tolist()))

    def has_uniform_support(self) -> bool:
        """Whether every stored index occupies each label exactly ``n // d`` times."""
        if not self._shape.divisible:
            return False
        profile = self.common_profile()
        return profile is not None and profile == SupportProfile.uniform(self._shape)

    def to_dense(self) -> np.ndarray:
        """Amplitude vector of length ``d**n`` in lexicographic index order."""
        vec = np.zeros(self._shape.total_dimension, dtype=complex)
        vec[self._digits @ _weights(self._shape.d, self._shape.n)] = self._values
        return vec

    @classmethod
    def from_dense(cls, shape: SystemShape, vector: np.ndarray) -> "PureState":
        vec = np.asarray(vector, dtype=complex).reshape(-1)
        if vec.size != shape.total_dimension:
            raise ValueError(f"vector has {vec.size} entries, expected {shape.total_dimension}")
        flat = np.flatnonzero(vec)
        digits = np.stack(np.unravel_index(flat, (shape.d,) * shape.n), axis=1)
        return cls._from_arrays(shape, digits, vec[flat])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PureState):
            return NotImplemented
        return (
            self._shape == other._shape
            and np.array_equal(self._digits, other._digits)
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self) -> int:
        # Adding 0.0 turns -0.0 into 0.0, so equal states hash alike.
        return hash((self._shape, self._digits.tobytes(), (self._values + 0.0).tobytes()))

    def __repr__(self) -> str:
        return (
            f"PureState(n={self._shape.n}, d={self._shape.d}, "
            f"terms={self._values.size}, norm={self.norm():.6g})"
        )


def joint_amplitudes(states: Sequence[PureState]) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes of same-shape states over their joint support.

    Returns ``(digits, amps)``: the union of the stored multi-indices in
    lexicographic order, and per state a row of its amplitudes on them.
    Raises :class:`MemoryError` before allocating when the concatenated
    digits and their int64 sort keys, or then the digits and the
    amplitude matrix, cannot fit.  The sort's own index arrays are not
    counted.
    """
    shape = _common_shape(states)
    n, d = shape.n, shape.d
    rows = sum(state.values.size for state in states)
    what = f"joining {len(states)} states of n={n} sites with d={d} levels"
    held = rows * n * states[0].digits.itemsize
    _require_memory(held + 8 * rows * -(-n // _word_digits(d, n)), what)
    digits = np.concatenate([state.digits for state in states])
    inverse, first = _group_rows(digits, d)
    _require_memory(held + 16 * len(states) * first.size, what)
    owner = np.repeat(np.arange(len(states)), [state.values.size for state in states])
    amps = np.zeros((len(states), first.size), dtype=complex)
    amps[owner, inverse] = np.concatenate([state.values for state in states])
    return digits[first], amps


_KIND_GENERAL = "general-unitary"
_KIND_PERMUTATION = "basis-permutation"
_KIND_DIAGONAL = "diagonal-phase"


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """A ``d x d`` one-site operator, tagged with how it can be applied.

    ``basis-permutation`` and ``diagonal-phase`` operators act on sparse
    states by exact index relabeling and phase multiplication; the
    general kind goes through the dense vector, one GEMM per site.
    """

    matrix: np.ndarray
    kind: str
    permutation: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {matrix.shape}")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def unitary(cls, matrix: np.ndarray, tol: float = DEFAULT_TOL) -> "LocalOperator":
        """Wrap a unitary checked to ``tol``; a non-finite matrix fails with defect ``inf``."""
        op = cls(matrix, _KIND_GENERAL)
        defect = np.inf
        if np.isfinite(op.matrix).all():
            defect = np.abs(op.matrix.conj().T @ op.matrix - np.eye(op.d)).max()
        if not defect <= tol:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e} > tol {tol:.1e})")
        return op

    @classmethod
    def basis_permutation(cls, mapping: Sequence[int]) -> "LocalOperator":
        """Label relabeling ``k -> mapping[k]`` as a permutation matrix."""
        perm = tuple(int(p) for p in mapping)
        d = len(perm)
        if sorted(perm) != list(range(d)):
            raise ValueError(f"{perm} is not a permutation of 0..{d - 1}")
        mat = np.zeros((d, d), dtype=complex)
        for src, dst in enumerate(perm):
            mat[dst, src] = 1.0
        return cls(mat, _KIND_PERMUTATION, permutation=perm)

    @classmethod
    def diagonal_phase(cls, angles: Sequence[float]) -> "LocalOperator":
        """Diagonal unitary ``diag(exp(i * angles[k]))``."""
        phases = [cmath.exp(1j * float(a)) for a in angles]
        return cls(np.diag(phases), _KIND_DIAGONAL)


def permutation_sign(perm: Sequence[int]) -> int:
    """Sign of the permutation ``k -> perm[k]`` (one-line notation), by inversion parity."""
    perm = tuple(perm)
    if sorted(perm) != list(range(len(perm))):
        raise ValueError(f"{perm} is not a permutation of 0..{len(perm) - 1}")
    return -1 if sum(a > b for a, b in combinations(perm, 2)) % 2 else 1


def _memory_limit() -> int:
    """Bytes this process may use: the soft address-space limit when set, else physical memory."""
    limit, _ = resource.getrlimit(resource.RLIMIT_AS)
    if limit == resource.RLIM_INFINITY:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return limit


def _require_memory(need: int, what: str) -> None:
    """Raise :class:`MemoryError` when ``need`` bytes, the cost of ``what``, cannot fit."""
    limit = _memory_limit()
    if need > limit:
        # An astronomically large shape's figure overflows a float; Decimal holds it.
        gib = need / 2**30 if need < 2**1000 else Decimal(need) / 2**30
        raise MemoryError(
            f"{what} would take about {gib:.3g} GiB, more than the {limit / 2**30:.3g} GiB available"
        )


def _check_dense_memory(shape: SystemShape, per_entry: int = 64) -> None:
    """Raise :class:`MemoryError` before forming a ``d**n`` image that cannot fit.

    ``per_entry`` is the peak in bytes per entry of ``d**n``; the default
    counts four complex vectors: the dense state, the two arrays of a
    :func:`_local_image` step, and one temporary of the caller's
    comparison.
    """
    _require_memory(
        per_entry * shape.total_dimension,
        f"a dense image of n={shape.n} sites with d={shape.d} levels",
    )


def _local_image(vector: np.ndarray, matrix: np.ndarray, n: int, d: int) -> np.ndarray:
    """``matrix`` applied to every site of a dense ``d**n`` vector.

    One GEMM per site: the leading site is contracted and moved to the
    end (``t <- t.reshape(d, -1).T @ matrix.T``, which is
    ``(matrix @ t.reshape(d, -1)).T`` written contiguously), so after
    ``n`` steps the sites are back in their original order.  Cost
    ``n * d**(n+1)``; besides the input it holds two arrays of its size.
    """
    image = vector
    for _ in range(n):
        image = image.reshape(d, -1).T @ matrix.T
    return image.reshape(-1)


def apply_local(state: PureState, op: LocalOperator) -> PureState:
    """Apply the same one-site operator to every particle.

    Returns the image of the state under ``op`` acting on each of the
    ``n`` sites simultaneously (the n-fold tensor power).  The result is
    *not* phase-canonicalized: a permutation that negates the state
    really returns the negated amplitudes.

    Basis permutations are applied by exact index relabeling and
    diagonal phases by exact per-index phase multiplication; other kinds
    go through the dense ``d**n`` vector with one GEMM per site (cost
    ``n * d**(n+1)``), and raise :class:`MemoryError` before allocating
    when about ``16 (n + 5)`` bytes per entry of ``d**n`` would not fit:
    the four vectors of the image, plus the int64 digit rows (and their
    stacked copy) that :meth:`PureState.from_dense` builds for a full
    support.
    """
    if op.d != state.shape.d:
        raise ValueError(f"operator acts on d={op.d}, state has d={state.shape.d}")
    if op.kind == _KIND_PERMUTATION:
        relabel = np.array(op.permutation, dtype=state.digits.dtype)
        return PureState._from_arrays(state.shape, relabel[state.digits], state.values)
    if op.kind == _KIND_DIAGONAL:
        phases = np.diagonal(op.matrix)[state.digits].prod(axis=1)
        return PureState._from_arrays(state.shape, state.digits, state.values * phases)
    _check_dense_memory(state.shape, 16 * (state.shape.n + 5))
    image = _local_image(state.to_dense(), op.matrix, state.shape.n, state.shape.d)
    return PureState.from_dense(state.shape, image)


def permute_particles(state: PureState, omega: Sequence[int]) -> PureState:
    """Reorder particles: site ``a`` of the output reads site ``omega[a]`` of the input.

    Exact integer relabeling of the stored multi-indices; amplitudes are
    moved untouched and no phase canonicalization is applied.
    """
    n = state.shape.n
    omega = tuple(int(w) for w in omega)
    if sorted(omega) != list(range(n)):
        raise ValueError(f"{omega} is not a permutation of 0..{n - 1}")
    return PureState._from_arrays(state.shape, state.digits[:, omega], state.values)


def _collective_terms(digits: np.ndarray, matrix: np.ndarray, d: int) -> tuple[np.ndarray, ...]:
    """Terms of ``sum_a g^(a)`` over ``digits``, grouped by the image row each lands on.

    Returns ``(columns, weights, inverse, first, images)``: term ``t``
    adds ``weights[t]`` times an amplitude row's entry ``columns[t]`` to
    its image entry ``inverse[t]``; ``images`` holds each term's image
    digit row and ``images[first]`` the image's distinct rows, sorted.
    The terms depend on ``digits`` alone, so they serve any number of rows.
    """
    n = digits.shape[1]
    # An entry of label v makes one term per target that g maps v to.
    labels = sum(np.bincount(column, minlength=d) for column in digits.T)
    size = int(labels @ np.count_nonzero(matrix, axis=0))
    images = np.empty((size, n), dtype=digits.dtype)
    columns = np.empty(size, dtype=np.intp)
    weights = np.empty(size, dtype=matrix.dtype)
    end = 0
    for site in range(n):
        for target in range(d):
            weight = matrix[target, digits[:, site]]
            hit = np.flatnonzero(weight)
            start, end = end, end + hit.size
            images[start:end] = digits[hit]
            images[start:end, site] = target
            columns[start:end] = hit
            weights[start:end] = weight[hit]
    inverse, first = _group_rows(images, d)
    return columns, weights, inverse, first, images


def _collective_sum(
    rows: np.ndarray, columns: np.ndarray, weights: np.ndarray, inverse: np.ndarray, size: int
) -> np.ndarray:
    """Image of each amplitude row under the :func:`_collective_terms` ``columns, weights, inverse``.

    Each image entry sums its terms in the same order whatever the number of rows.
    """
    total = np.zeros((len(rows), size), dtype=complex)
    for row, terms in zip(total, weights * rows[:, columns]):
        np.add.at(row, inverse, terms)
    return total


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


def superpose(
    coefficients: Sequence[complex],
    states: Sequence[PureState],
    *,
    canonicalize: bool = True,
) -> PureState:
    """Linear combination ``sum_j coefficients[j] * states[j]``."""
    if len(coefficients) != len(states):
        raise ValueError("need one coefficient per state")
    if not states:
        raise ValueError("cannot superpose an empty list of states")
    digits, amps = joint_amplitudes(states)
    total = np.asarray(coefficients, dtype=complex) @ amps
    return PureState._from_arrays(states[0].shape, digits, total, canonicalize=canonicalize)


@dataclass(frozen=True, eq=False)
class MarginalMatrix:
    """Reduced density matrix on a subsystem, as a dense Hermitian block.

    Rows and columns enumerate the subsystem multi-indices in
    lexicographic order, with sites listed by ascending site label.
    """

    sites: tuple[int, ...]
    d: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=complex)
        dim = self.d ** len(self.sites)
        if matrix.shape != (dim, dim):
            raise ValueError(f"marginal on {self.sites} must be {dim}x{dim}, got {matrix.shape}")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    def entry(self, row: Sequence[int], col: Sequence[int]) -> complex:
        """Matrix element between two subsystem multi-indices."""
        weights = _weights(self.d, len(self.sites))
        return complex(self.matrix[int(np.dot(row, weights)), int(np.dot(col, weights))])

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.matrix - self.matrix.conj().T).max())

    def uniform_deviation(self) -> float:
        """Squared Frobenius distance to the maximally mixed matrix ``I / dim``."""
        return float(_uniform_deviations(self.matrix))

    def is_maximally_mixed(self, tol: float = DEFAULT_TOL) -> bool:
        return self.uniform_deviation() <= tol


def _uniform_deviations(blocks: np.ndarray) -> np.ndarray:
    """Squared Frobenius distance of each trailing ``dim x dim`` block to ``I / dim``."""
    dim = blocks.shape[-1]
    delta = blocks - np.eye(dim) / dim
    return np.sum(np.abs(delta) ** 2, axis=(-2, -1))


def _marginal_factors(
    digits: np.ndarray, amps: np.ndarray, sites: Sequence[int], d: int
) -> np.ndarray:
    """One ``d**k x m`` factor ``X`` per amplitude row, with ``Tr_B |a><b| = X_a @ X_b^H``.

    ``digits`` and ``amps`` are states aligned on their joint support, as
    :func:`joint_amplitudes` gives them.  Rows of a factor index the
    ``k`` sites (nonempty, distinct, within ``0 .. n-1``) in ascending
    order; columns, numbered alike for every state, the distinct
    complement rows of the joint support.
    """
    n = digits.shape[1]
    keep = sorted(int(s) for s in sites)
    if not keep:
        raise ValueError("subsystem must contain at least one site")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate sites in subsystem {tuple(sites)}")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"subsystem {tuple(sites)} out of range for n={n}")
    drop = [site for site in range(n) if site not in keep]
    columns, distinct = _group_rows(digits[:, drop], d)
    factors = np.zeros((len(amps), d ** len(keep), distinct.size), dtype=complex)
    factors[:, digits[:, keep] @ _weights(d, len(keep)), columns] = amps
    return factors


def _marginal_blocks(
    digits: np.ndarray, amps: np.ndarray, sites: Sequence[int], d: int
) -> np.ndarray:
    """Reduced matrix ``F @ F^H`` on ``sites`` of each aligned amplitude row, priced first.

    Per row: a ``d**k x m`` factor, ``m`` at most the support rows, and its block.
    """
    n, dim = digits.shape[1], d ** len(sites)
    need = 16 * len(amps) * dim * (len(digits) + dim)
    _require_memory(need, f"{len(sites)}-site marginals of n={n} sites with d={d} levels")
    factors = _marginal_factors(digits, amps, sites, d)
    return factors @ factors.conj().transpose(0, 2, 1)


def _pair_sums(
    digits: np.ndarray, amps: np.ndarray, d: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per amplitude row: equal-label mass, pair deficit and pair swap expectations.

    ``digits`` and ``amps`` are normalized states aligned on their joint
    support.  Each site pair is one :func:`_marginal_blocks` call for
    every row; mass and deficit are added in pair order.
    """
    pairs = list(combinations(range(digits.shape[1]), 2))
    mass, deficit = np.zeros(len(amps)), np.zeros(len(amps))
    swaps = np.empty((len(amps), len(pairs)))
    for position, pair in enumerate(pairs):
        blocks = _marginal_blocks(digits, amps, pair, d)
        mass += blocks.diagonal(axis1=-2, axis2=-1)[..., :: d + 1].real.sum(axis=-1)
        deficit += _uniform_deviations(blocks)
        swaps[:, position] = np.einsum("tijji->t", blocks.reshape(-1, d, d, d, d)).real
    return mass, deficit, swaps


#: Bytes one chunk of :func:`_marginal_deviations` may take, each subset
#: priced as its dense marginal plus its codes and index arrays.
_CHUNK_BYTES = 4 << 20


def _code_ranks(d: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Occupation profiles of the ``width``-digit codes, each code's profile and rank.

    Returns ``(kinds, sector, rank)``: the distinct label counts in
    lexicographic order, the one of each code, and the number of smaller
    codes with the same counts, so that ranks keep the codes' order.
    """
    codes = np.arange(d**width)
    counts = np.zeros((codes.size, d), dtype=np.intp)
    for weight in _weights(d, width):
        counts[codes, codes // weight % d] += 1
    kinds, sector = np.unique(counts, axis=0, return_inverse=True)
    sector = sector.reshape(-1)  # flat in every numpy version
    rows = np.bincount(sector)
    rank = np.empty(codes.size, dtype=np.intp)
    rank[np.argsort(sector, kind="stable")] = codes - np.repeat(np.cumsum(rows) - rows, rows)
    return kinds, sector, rank


def _kept_sectors(
    state: PureState, profile: SupportProfile | None, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sector of each ``k``-site code, its rank inside the sector, and each sector's shape.

    With the common support profile ``P`` a sector holds the codes of one
    occupation profile ``p``, and the columns of its factor are the
    complement rows of profile ``P - p``: at most the stored rows and at
    most the words of that profile.  Without one, every code is in one
    sector whose columns are every complement row.  Ranks keep the
    lexicographic order of the codes.
    """
    n, d, count = state.shape.n, state.shape.d, state.values.size
    if profile is None:
        sector, rank = np.zeros(d**k, dtype=np.intp), np.arange(d**k)
        width = [min(count, d ** (n - k))]
    else:
        kinds, sector, rank = _code_ranks(d, k)
        width = [
            min(count, SupportProfile(rest).size()) if rest.min() >= 0 else 0
            for rest in np.array(profile.counts) - kinds
        ]
    return sector, rank, np.bincount(sector), np.array(width, dtype=np.intp)


def _complement_ranks(
    state: PureState, profile: SupportProfile | None, k: int
) -> np.ndarray | None:
    """Factor column of every complement code on a complete support, else None.

    A support is complete when every stored row has the profile ``P``
    and every word of ``P`` is stored.  The complement rows beside the
    kept rows of profile ``p`` are then all the words of ``P - p``, in
    lexicographic order, so a complement row's column is its rank among
    the words of its own profile: one table serves every subset.  The
    table is built only when its ``d**(n - k)`` codes are no more than
    the stored rows.
    """
    n, d, count = state.shape.n, state.shape.d, state.values.size
    if profile is None or d ** (n - k) > count or count != profile.size():
        return None
    return _code_ranks(d, n - k)[2]


def _sort_rows(
    codes: np.ndarray, sector: np.ndarray, spread: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort each subset's stored rows by sector, then by complement row.

    ``codes[0]`` holds the kept code and ``codes[1:]`` the complement
    words of every (subset, stored row); the first word is overwritten
    with the row's sector in front, ``spread`` being its place value.
    Returns the sort order, the kept codes in that order and whether
    each sorted row starts a new complement row.  Kept apart from
    :func:`_sector_factors` so that the codes are freed before the
    factors are laid out.
    """
    words, m, count = len(codes) - 1, codes.shape[1], codes.shape[2]
    codes[1] += sector[codes[0].astype(np.intp)] * spread
    order = np.argsort(codes[1], axis=1) if words == 1 else np.lexsort(codes[:0:-1], axis=1)
    codes = codes.reshape(1 + words, -1)[:, (order + np.arange(m)[:, None] * count).ravel()]
    codes = codes.reshape(1 + words, m, count)
    fresh = np.ones((m, count), dtype=bool)
    fresh[:, 1:] = np.any(codes[1:, :, 1:] != codes[1:, :, :-1], axis=0)
    return order, codes[0].astype(np.intp), fresh


def _sector_factors(
    codes: np.ndarray,
    values: np.ndarray,
    sector: np.ndarray,
    offsets: np.ndarray,
    size: int,
    spread: float,
) -> np.ndarray:
    """Every sector factor of a chunk of subsets, side by side in one flat array.

    ``codes`` and ``spread`` are as :func:`_sort_rows` takes them, and
    the row of kept code ``c`` in subset ``s`` begins at ``offsets[s, c]``.
    The distinct complement rows of a sector, in order, are its factor's
    first columns.
    """
    order, kept, fresh = _sort_rows(codes, sector, spread)
    m, sectors = len(kept), int(sector.max()) + 1
    each = np.arange(m)[:, None]
    distinct = np.bincount((each * sectors + sector[kept])[fresh], minlength=m * sectors)
    distinct = distinct.reshape(m, -1)
    # A row's column counts the distinct complement rows up to its own,
    # less those of the subset's earlier sectors.
    earlier = np.cumsum(distinct, axis=1) - distinct + 1
    index = np.cumsum(fresh, axis=1)
    index += (offsets - earlier[:, sector])[each, kept]
    factors = np.zeros(size, dtype=complex)
    factors[index] = values[order]
    return factors


def _marginal_deviations(state: PureState, subsets: Iterable[Sequence[int]]) -> np.ndarray:
    """Squared Frobenius distance to ``I / d**k`` of a normalized state's marginal on each subset.

    ``subsets`` yields nonempty ascending site tuples, all of one size
    ``k``, and is read one chunk at a time.

    When every stored row has the occupation profile ``P``, a kept row
    of profile ``p`` meets only complement rows of profile ``P - p``, so
    each marginal is block-diagonal in ``p`` and only the blocks
    ``F_p @ F_p^H`` are formed; otherwise the whole marginal is one
    block.  The off-block entries are exact zeros, so each deviation is
    still the entrywise sum over the blocks.

    The first subset is priced as its dense marginal and refused with
    :class:`MemoryError` when that cannot fit, before any other is read.
    The subsets then go in chunks of at most :data:`_CHUNK_BYTES`, one
    subset when less is available.  A chunk's kept and complement codes
    come from one float product of the digits with the subsets' place
    values, exact because every word stays below ``2**52``.  Each stored
    row's factor column is its complement row's rank among the distinct
    complement rows of its sector.  On a complete support (every word of
    ``P`` stored, see :func:`_complement_ranks`) that rank is read from
    one table per call; otherwise one sort per subset numbers them.  One
    fancy assignment fills every factor, laid out alike on both routes,
    and each sector is one batched ``matmul``.
    """
    n, d = state.shape.n, state.shape.d
    count = state.values.size
    subsets = iter(subsets)
    first = next(subsets)
    k = len(first)
    dim = d**k
    need = 16 * (2 * dim * min(count, d ** (n - k)) + 3 * dim**2)
    # The factor and its conjugate beside the block, then the block, its
    # difference from I / dim and two real temporaries of the deviation.
    _require_memory(need, f"a {k}-site marginal of n={n} sites with d={d} levels")
    profile = state.common_profile()
    sector, rank, rows, width = _kept_sectors(state, profile, k)
    ranks = _complement_ranks(state, profile, k)
    # Complement digits per word, leaving room for the sector in front of
    # the first word; the factor 2 below 2**53 covers the rounded log2.
    # A rank table's codes fit one word: there are no more than ``count``.
    whole = d == 1 or ranks is not None
    step = max(1, n - k if whole else int((52 - math.log2(rows.size)) // math.log2(d)))
    words = max(1, -(-(n - k) // step))
    spread = float(d ** min(step, n - k))
    # Per subset: its place values and codes, then about a dozen
    # support-long index arrays for the sort and the scatter.
    size = max(
        1,
        min(_CHUNK_BYTES, _memory_limit())
        // (need + 8 * (words + 1) * n + 8 * (words + 12) * count),
    )
    columns = state.digits.T.astype(float)
    deviations = []
    subsets = chain([first], subsets)
    for chunk in iter(lambda: list(islice(subsets, size)), []):
        sites = np.array(chunk, dtype=np.intp)
        m = len(sites)
        each = np.arange(m)[:, None]
        rest = np.ones((m, n), dtype=bool)
        rest[each, sites] = False
        rest = np.nonzero(rest)[1].reshape(m, n - k)
        places = np.zeros((1 + words, m, n))
        places[0, each, sites] = _weights(d, k)
        for word in range(words):
            part = rest[:, word * step : (word + 1) * step]
            places[1 + word, each, part] = _weights(d, part.shape[1])
        codes = (places.reshape(-1, n) @ columns).reshape(1 + words, m, count)
        # Sector p of subset s is the rows[p] x width[p] matrix at
        # starts[p] + s * rows[p] * width[p]; kept code c's row in it
        # begins at offsets[s, c].
        spans = m * rows * width
        starts = np.cumsum(spans) - spans
        offsets = starts[sector] + (rank + each * rows[sector]) * width[sector]
        length = int(spans.sum())
        if ranks is None:
            factors = _sector_factors(codes, state.values, sector, offsets, length, spread)
        else:
            kept, other = codes.astype(np.intp)
            factors = np.zeros(length, dtype=complex)
            factors[offsets[each, kept] + ranks[other]] = state.values
        total = np.zeros(m)
        for start, r, c in zip(starts, rows, width):
            factor = factors[start : start + m * r * c].reshape(m, r, c)
            block = factor @ factor.conj().transpose(0, 2, 1)
            block.reshape(m, -1)[:, :: r + 1] -= 1 / dim
            total += np.sum(np.abs(block) ** 2, axis=(1, 2))
        deviations.append(total)
    return np.concatenate(deviations)


def cross_marginal(
    left: PureState | Sequence[PureState],
    right: PureState | Sequence[PureState],
    sites: Sequence[int],
) -> np.ndarray:
    """Subsystem block ``Tr_B |left><right|`` as a dense array.

    Entry ``(i_A, j_A)`` is ``sum_{i_B} left[i_A, i_B] * conj(right[j_A, i_B])``
    where ``A`` is ``sites`` (ascending) and ``B`` the complement.

    Both arguments may instead be sequences of states; the result then
    stacks every block: ``cross_marginal(basis, basis, sites)[j, k]`` is
    ``Tr_B |basis[j]><basis[k]|``.
    """
    single = isinstance(left, PureState)
    lefts, rights = ([left], [right]) if single else (list(left), list(right))
    digits, amps = joint_amplitudes(lefts + rights)
    factors = _marginal_factors(digits, amps, sites, lefts[0].shape.d)
    x = factors[: len(lefts)]
    y = factors[len(lefts) :]
    blocks = x[:, None] @ y.conj().transpose(0, 2, 1)[None]
    return blocks[0, 0] if single else blocks


def _require_unit_norm(norm: float, tol: float) -> None:
    if not abs(norm - 1.0) <= tol:
        raise ValueError(f"state norm is {norm:.12g}, expected 1 within {tol:.1e}")


def _require_normalized(state: PureState, tol: float) -> None:
    _require_unit_norm(state.norm(), tol)


def partial_trace(
    state: PureState, sites: Iterable[int], tol: float = DEFAULT_TOL
) -> MarginalMatrix:
    """Reduced density matrix of a normalized state on ``sites``.

    Parameters
    ----------
    state : PureState
        Must be normalized to within ``tol``.
    sites : iterable of int
        Nonempty subset of ``0 .. n-1``; order is ignored, rows and
        columns follow ascending site label.
    tol : float
        Normalization tolerance.

    Returns
    -------
    MarginalMatrix
        Hermitian, trace one (up to roundoff), of dimension ``d**|sites|``.
    """
    _require_normalized(state, tol)
    keep = tuple(sorted(int(s) for s in sites))
    block = _marginal_blocks(state.digits, state.values[None], keep, state.shape.d)[0]
    return MarginalMatrix(sites=keep, d=state.shape.d, matrix=block)


# --- JSON interface -------------------------------------------------------
#
# {"n": ..., "d": ..., "amplitudes": [{"index": [...], "re": ..., "im": ...}, ...]}
# with only nonzero amplitudes, sorted lexicographically by index.  Index
# entries are JSON integers and "re" and "im" finite JSON numbers.


def _state_document(shape: SystemShape, amplitudes) -> dict:
    return {"n": shape.n, "d": shape.d, "amplitudes": amplitudes}


def state_to_dict(state: PureState) -> dict:
    """Plain-dict form of a state (see module notes for the schema)."""
    return _state_document(
        state.shape,
        [
            {"index": index, "re": value.real, "im": value.imag}
            for index, value in zip(state.digits.tolist(), state.values.tolist())
        ],
    )


def _integer_field(obj: Mapping, key: str) -> int:
    """``obj[key]`` when it is a JSON integer; a float, string or bool is a TypeError."""
    value = obj[key]
    if type(value) is not int:
        raise TypeError(f"{key!r} must be an integer, got {value!r}")
    return value


def state_from_dict(obj: Mapping) -> PureState:
    """Parse the JSON-dict form back into a PureState.

    Stored amplitudes are taken verbatim, with no phase
    canonicalization, so that files round-trip exactly.  ``n``, ``d``
    and index entries that are not integers, and amplitude parts that
    are not finite numbers, are rejected, not converted.
    """
    try:
        shape = SystemShape(_integer_field(obj, "n"), _integer_field(obj, "d"))
        entries = obj["amplitudes"]
        indices = [entry["index"] for entry in entries]
        parts = [(entry["re"], entry["im"]) for entry in entries]
        # Exact types, so that no bool passes for an int.
        if set(map(type, chain.from_iterable(indices))) - {int}:
            raise TypeError("multi-index entries must be integers")
        if set(map(type, chain.from_iterable(parts))) - {int, float}:
            raise TypeError("amplitudes must be numbers")
        digits = _index_matrix(shape, indices)
        pairs = np.array(parts, dtype=float).reshape(-1, 2)
        if not np.isfinite(pairs).all():
            raise ValueError("amplitudes must be finite")
        # (re, im) rows read as complex keep every bit, signed zeros included.
        return PureState._from_arrays(shape, digits, pairs.view(complex).ravel())
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed state document: {exc}") from exc


def save_state(state: PureState, path: str) -> None:
    (entries,) = _json.amplitude_lists(state.digits, state.values[None, :])
    _json.dump(_state_document(state.shape, entries), path)


def load_state(path: str) -> PureState:
    return state_from_dict(_json.load(path))
