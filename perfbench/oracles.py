"""Inputs and reference answers computed without singletlab.

Nothing here imports the package under test.  Each oracle reaches its
answer by a different route than the code it checks:

* the subspace dimension counts standard Young tableaux of the d x K
  rectangle by dynamic programming over row lengths, not by the hook
  length formula;
* random subspace states are sums of products of d-site antisymmetric
  (determinant) states over random partitions of the sites, which are
  invariant by construction, with no kernel computation;
* the k-site uniformity deficit is computed from the dense amplitude
  tensor by transpose, reshape and one matrix product per subsystem.

``permute_sites`` turns a basis file into a seeded, equivalent input.
"""

from __future__ import annotations

import functools
import itertools
import json
from fractions import Fraction
from math import comb

import numpy as np


def tableau_count(n: int, d: int) -> int:
    """Standard Young tableaux of the d-row rectangle with n cells (0 unless d | n)."""
    if n % d:
        return 0
    cols = n // d

    @functools.lru_cache(maxsize=None)
    def fill(rows: tuple[int, ...]) -> int:
        # Ways to place the remaining numbers, given how long each row is.
        if rows[0] == cols and rows[-1] == cols:
            return 1
        total = 0
        for r in range(d):
            if rows[r] < cols and (r == 0 or rows[r - 1] > rows[r]):
                total += fill(rows[:r] + (rows[r] + 1,) + rows[r + 1 :])
        return total

    return fill((0,) * d)


def counting_floor(n: int, d: int) -> Fraction:
    """The paper's pair-deficit floor gap**2 / (d * C(n, 2)) for d | n."""
    copies = n // d
    gap = Fraction(comb(n, 2), d) - d * comb(copies, 2)
    return gap * gap / (d * comb(n, 2))


def werner_minimum(n: int, d: int) -> Fraction:
    """Least pair deficit of an invariant state, n(d^2 - 1) / (2 d^2 (n - 1)).

    Jensen's bound over Werner-form pair marginals; the optimizer reaches
    it at (8,2) and (6,3), where it is 3/7 and 8/15.
    """
    return Fraction(n * (d * d - 1), 2 * d * d * (n - 1))


def _antisymmetric(d: int) -> np.ndarray:
    eps = np.zeros((d,) * d)
    for perm in itertools.permutations(range(d)):
        inversions = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        eps[perm] = -1.0 if inversions % 2 else 1.0
    return eps


def random_invariant_state(n: int, d: int, seed: int) -> np.ndarray:
    """Seeded random unit vector of the invariant subspace, as a (d,)*n tensor.

    A Gaussian combination of twice as many determinant products as the
    subspace has dimensions, each over a random partition of the sites
    into blocks of d.
    """
    rng = np.random.default_rng(seed)
    eps = _antisymmetric(d)
    product = eps
    for _ in range(n // d - 1):
        product = np.multiply.outer(product, eps)
    psi = np.zeros((d,) * n, dtype=complex)
    for _ in range(2 * tableau_count(n, d)):
        sites = rng.permutation(n)
        weight = complex(rng.standard_normal(), rng.standard_normal())
        psi += weight * np.moveaxis(product, list(range(n)), list(sites))
    return psi / np.linalg.norm(psi)


def write_state(psi: np.ndarray, path: str) -> None:
    """Write a tensor in singletlab's state schema (nonzero entries, lexicographic)."""
    n, d = psi.ndim, psi.shape[0]
    flat = psi.reshape(-1)
    amplitudes = [
        {
            "index": [int(i) for i in np.unravel_index(pos, psi.shape)],
            "re": float(flat[pos].real),
            "im": float(flat[pos].imag),
        }
        for pos in np.flatnonzero(flat)
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"n": n, "d": d, "amplitudes": amplitudes}, handle)


def permute_sites(path: str, seed: int) -> None:
    """Rewrite a basis file with the sites of every member in a seeded random order.

    The pair deficit sums over all site pairs, so the optimizer sees the
    same objective up to roundoff: the input changes, the work does not.
    """
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    order = np.random.default_rng(seed).permutation(doc["n"]).tolist()
    for state in doc["states"]:
        for entry in state["amplitudes"]:
            index = entry["index"]
            entry["index"] = [index[site] for site in order]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def uniformity_deficit(psi: np.ndarray, k: int) -> float:
    """Sum over k-site subsystems of ||rho_A - I/d**k||_F**2."""
    n, d = psi.ndim, psi.shape[0]
    dim = d**k
    total = 0.0
    for sites in itertools.combinations(range(n), k):
        rest = [s for s in range(n) if s not in sites]
        block = np.transpose(psi, list(sites) + rest).reshape(dim, -1)
        rho = block @ block.conj().T
        total += float(np.sum(np.abs(rho - np.eye(dim) / dim) ** 2))
    return total
