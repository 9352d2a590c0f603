"""Acceptance suite: the eight headline guarantees of this package.

Each test covers one numbered criterion and prints a single pass/fail
line (visible with ``pytest -s`` or in the verbose test listing).  The
criteria mirror the package's core claims: subspace dimensions, the
counting identity, automatic 1-uniformity, the two-uniformity no-go,
the maximal-entanglement corollary, the lemma suite, numerical hygiene,
and the four-qubit marginal regression.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from singletlab import (
    SupportProfile,
    SystemShape,
    build_singlet_basis,
    certify,
    check_sign_relation,
    counting_sum,
    expected_dimension,
    extract_phase_function,
    is_ame,
    is_k_uniform,
    minimize_deficit,
    partial_trace,
    verify_invariance,
)
from singletlab.singlet import all_label_permutations

from conftest import random_dense_state
from reference import gradient_check

DIVISIBLE_SHAPES = [(2, 2), (3, 3), (4, 2), (6, 2), (6, 3)]


def report(number, label, ok):
    line = f"acceptance criterion {number} ({label}): {'PASS' if ok else 'FAIL'}"
    print(line, flush=True)
    return line


@pytest.fixture(scope="module")
def samples(basis_cache):
    """100 seeded random singlet states per multi-dimensional shape."""
    return {
        key: basis_cache(*key).sample(100, seed=2026)
        for key in [(4, 2), (6, 2), (6, 3)]
    }


def test_criterion_1_subspace_dimensions():
    expected = {
        (2, 2): 1,
        (3, 3): 1,
        (4, 2): 2,
        (3, 2): 0,
        (5, 2): 0,
        (4, 3): 0,
        (6, 2): 5,
        (6, 3): 5,
    }
    failures = []
    for (n, d), want in sorted(expected.items()):
        start = time.perf_counter()
        basis = build_singlet_basis(SystemShape(n, d))
        elapsed = time.perf_counter() - start
        if basis.dimension != want:
            failures.append(f"({n},{d}) dimension {basis.dimension} != {want}")
        if elapsed >= 10.0:
            failures.append(f"({n},{d}) build took {elapsed:.1f}s")
    line = report(1, "subspace dimensions", not failures)
    assert not failures, f"{line}; {failures}"


def test_criterion_2_counting_identity(samples):
    failures = []
    for (n, d), states in sorted(samples.items()):
        copies = n // d
        target = d * math.comb(copies, 2)
        worst = max(abs(counting_sum(state) - target) for state in states)
        if worst > 1e-9:
            failures.append(f"({n},{d}) worst counting deviation {worst:.2e}")
    cert = certify(SystemShape(6, 2))
    if cert.actual != Fraction(6) or cert.required != Fraction(15, 2):
        failures.append(f"(6,2) certificate {cert.actual} vs required {cert.required}")
    line = report(2, "counting identity", not failures)
    assert not failures, f"{line}; {failures}"


def test_criterion_3_automatic_one_uniformity(samples):
    worst = 0.0
    for states in samples.values():
        for state in states:
            worst = max(worst, is_k_uniform(state, 1).deficit)
    ok = worst <= 1e-10
    line = report(3, "automatic 1-uniformity", ok)
    assert ok, f"{line}; worst deficit {worst:.2e}"


def test_criterion_4_no_go_confirmation(basis_cache):
    floors = {
        (4, 2): Fraction(1, 12),
        (6, 2): Fraction(3, 40),
        (3, 3): Fraction(1, 9),
        (6, 3): Fraction(4, 45),
    }
    failures = []
    for (n, d), floor in sorted(floors.items()):
        start = time.perf_counter()
        result = minimize_deficit(basis_cache(n, d), restarts=16, seed=0)
        elapsed = time.perf_counter() - start
        if result.deficit < float(floor) - 1e-9:
            failures.append(f"({n},{d}) best deficit {result.deficit} below floor {floor}")
        if result.deficit <= 1e-3:
            failures.append(f"({n},{d}) deficit {result.deficit} not clearly positive")
        if elapsed >= 60.0:
            failures.append(f"({n},{d}) search took {elapsed:.1f}s")
    line = report(4, "two-uniformity no-go", not failures)
    assert not failures, f"{line}; {failures}"


def test_criterion_5_ame_corollary(samples, bell, qutrit):
    failures = []
    if not is_ame(bell).is_uniform:
        failures.append("pair singlet not flagged maximal")
    if not is_ame(qutrit).is_uniform:
        failures.append("qutrit singlet not flagged maximal")
    for key in [(4, 2), (6, 2)]:
        flagged = sum(1 for state in samples[key] if is_ame(state).is_uniform)
        if flagged:
            failures.append(f"{key}: {flagged} sampled states wrongly flagged maximal")
    line = report(5, "maximal-entanglement corollary", not failures)
    assert not failures, f"{line}; {failures}"


def test_criterion_6_lemma_suite(basis_cache, bell, qutrit, four_qubit):
    failures = []
    # phase dichotomy on the bundled reference states
    for state, want in [(bell, "signum"), (qutrit, "signum"), (four_qubit, "trivial")]:
        got = extract_phase_function(state, seed=0).permutation_phase
        if got != want:
            failures.append(f"phase {got} != {want}")
    # sign relation across every label permutation of every basis member
    for n, d in DIVISIBLE_SHAPES:
        tag = "signum" if (n // d) % 2 else "trivial"
        for member in basis_cache(n, d):
            for perm in all_label_permutations(d):
                if not check_sign_relation(member, perm, tag):
                    failures.append(f"sign relation fails at ({n},{d}) perm {perm}")
    # support counting: every stored index occupies each label exactly K times
    for n, d in DIVISIBLE_SHAPES:
        copies = n // d
        for member in basis_cache(n, d):
            for index in member.support():
                counts = SupportProfile.of_index(index, d).counts
                if counts != (copies,) * d:
                    failures.append(f"({n},{d}) index {index} counts {counts}")
    line = report(6, "lemma suite", not failures)
    assert not failures, f"{line}; {failures}"


def test_criterion_7_numerical_hygiene(basis_cache):
    failures = []
    # analytic gradient against central differences at 20 random points
    rng = np.random.default_rng(7)
    for key in [(4, 2), (6, 2), (6, 3)]:
        basis = basis_cache(*key)
        for _ in range(20):
            c = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(
                basis.dimension
            )
            c /= np.linalg.norm(c)
            err = gradient_check(basis, coefficients=c, seed=int(rng.integers(10**6)))
            if err > 1e-5:
                failures.append(f"{key} gradient error {err:.2e}")
    # invariance residuals across 20 fresh Haar samples per member
    for n, d in DIVISIBLE_SHAPES:
        for member in basis_cache(n, d):
            residual = verify_invariance(member, samples=20, seed=11)
            if residual > 1e-8:
                failures.append(f"({n},{d}) invariance residual {residual:.2e}")
    # partial traces stay Hermitian with unit trace on 1000 random states
    shapes = [
        SystemShape(2, 2),
        SystemShape(3, 2),
        SystemShape(4, 2),
        SystemShape(2, 3),
        SystemShape(3, 3),
        SystemShape(5, 2),
        SystemShape(4, 3),
    ]
    rng = np.random.default_rng(13)
    for trial in range(1000):
        shape = shapes[trial % len(shapes)]
        state = random_dense_state(shape, rng)
        k = int(rng.integers(1, shape.n))
        sites = sorted(rng.choice(shape.n, size=k, replace=False).tolist())
        marginal = partial_trace(state, sites)
        if abs(marginal.trace() - 1.0) > 1e-10:
            failures.append(f"trial {trial}: trace {marginal.trace()}")
        if marginal.hermiticity_defect() > 1e-10:
            failures.append(f"trial {trial}: hermiticity {marginal.hermiticity_defect()}")
    line = report(7, "numerical hygiene", not failures)
    assert not failures, f"{line}; {failures[:5]}"


def test_criterion_8_four_qubit_marginal_regression(four_qubit):
    marginal = partial_trace(four_qubit, {0, 1}).matrix
    expected = np.array(
        [
            [1 / 3, 0, 0, 0],
            [0, 1 / 6, 1 / 6, 0],
            [0, 1 / 6, 1 / 6, 0],
            [0, 0, 0, 1 / 3],
        ]
    )
    # independent oracle: direct summation over the traced-out pair
    amp = dict(four_qubit.amplitudes)
    direct = np.zeros((4, 4), dtype=complex)
    for (a0, a1), (b0, b1) in itertools.product(
        itertools.product(range(2), repeat=2), repeat=2
    ):
        total = 0.0 + 0.0j
        for rest in itertools.product(range(2), repeat=2):
            left = amp.get((a0, a1) + rest, 0.0)
            right = amp.get((b0, b1) + rest, 0.0)
            total += left * np.conj(right)
        direct[2 * a0 + a1, 2 * b0 + b1] = total
    ok = (
        np.abs(marginal - expected).max() <= 1e-12
        and np.abs(direct - expected).max() <= 1e-12
    )
    line = report(8, "four-qubit marginal regression", ok)
    assert ok, f"{line}; max deviation {np.abs(marginal - expected).max():.2e}"
