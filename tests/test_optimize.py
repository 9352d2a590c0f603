"""Tests for the pair-deficit objective and the sphere-constrained search."""

import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from singletlab import (
    PairDeficitObjective,
    PureState,
    SingletBasis,
    SystemShape,
    certify,
    cross_marginal,
    minimize_deficit,
    optimize,
    pair_deficit,
    permute_particles,
    result_to_dict,
    save_basis,
)

from reference import gradient_check


def random_unit_coefficients(r, rng):
    c = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    return c / np.linalg.norm(c)


def quartic_reference(basis, c):
    """Deficit and Wirtinger gradient straight from the cross-marginal blocks.

    ``tau_A(c) = sum_jk c_j conj(c_k) T_A[j, k]`` for any ``c``, unit or
    not, so ``D = sum_A ||tau_A - I/d**2||_F**2`` is quartic in ``c`` and
    ``dD/d conj(c_k) = 2 sum_A sum_j c_j Tr((tau_A - I/d**2) T_A[j, k])``.
    No Werner-state structure is assumed.
    """
    n, d = basis.shape.n, basis.shape.d
    value, grad = 0.0, np.zeros(basis.dimension, dtype=complex)
    for sites in combinations(range(n), 2):
        blocks = cross_marginal(basis.states, basis.states, sites)
        diff = np.einsum("j,k,jkab->ab", c, c.conj(), blocks) - np.eye(d * d) / d**2
        value += float(np.sum(np.abs(diff) ** 2))
        grad += 2.0 * np.einsum("j,ab,jkba->k", c, diff, blocks)
    return value, grad


def balanced_not_invariant_basis():
    """Orthonormal, balanced (4,2) basis {|0011>, |0101>} that is not invariant.

    Exchanging sites 0 and 1 maps |0101> to |1001>, outside the joint support.
    """
    shape = SystemShape(4, 2)
    states = tuple(PureState(shape, {index: 1.0}) for index in [(0, 0, 1, 1), (0, 1, 0, 1)])
    return SingletBasis(shape=shape, tolerance=1e-9, states=states)


def werner_deficit(trace, swap, d):
    """``||rho - I/d**2||_F**2`` for the Werner state ``rho = alpha I + beta F``
    with ``Tr rho = trace`` and ``Tr(F rho) = swap``."""
    alpha, beta = np.linalg.solve([[d * d, d], [d, d * d]], [trace, swap])
    shift = alpha - 1.0 / d**2
    return d * d * (shift**2 + 2.0 * shift * beta / d + beta**2)


def werner_jensen_bound(n, d):
    """Least pair deficit allowed by the swap-sum identity and Jensen."""
    return Fraction(n * (d * d - 1), 2 * d * d * (n - 1))


class TestObjective:
    @pytest.mark.parametrize("n,d", [(2, 2), (3, 3), (4, 2), (6, 2), (6, 3)])
    def test_value_matches_direct_marginal_route(self, n, d, basis_cache):
        """The closed quartic form must agree with summing marginal deviations."""
        basis = basis_cache(n, d)
        objective = PairDeficitObjective(basis)
        rng = np.random.default_rng(50 + n * d)
        for _ in range(8):
            c = random_unit_coefficients(basis.dimension, rng)
            state = basis.combine(c)
            assert objective.value(c) == pytest.approx(pair_deficit(state), abs=1e-11)

    def test_value_and_gradient_agree_on_value(self, basis_cache):
        basis = basis_cache(6, 2)
        objective = PairDeficitObjective(basis)
        rng = np.random.default_rng(60)
        for _ in range(5):
            c = random_unit_coefficients(basis.dimension, rng)
            value_only = objective.value(c)
            value, _ = objective.value_and_gradient(c)
            assert value == pytest.approx(value_only, abs=1e-13)

    @pytest.mark.parametrize("n,d", [(4, 2), (6, 2), (6, 3)])
    def test_gradient_against_finite_differences(self, n, d, basis_cache):
        basis = basis_cache(n, d)
        rng = np.random.default_rng(70)
        for _ in range(5):
            c = random_unit_coefficients(basis.dimension, rng)
            err = gradient_check(basis, coefficients=c, seed=int(rng.integers(1000)))
            assert err < 1e-6

    @pytest.mark.parametrize("n,d", [(4, 2), (6, 2), (6, 3)])
    def test_swap_form_matches_quartic_reference_off_the_sphere(self, n, d, basis_cache):
        basis = basis_cache(n, d)
        objective = PairDeficitObjective(basis)
        rng = np.random.default_rng(80 + n * d)
        for scale in [0.3, 1.0, 1.7]:
            c = scale * random_unit_coefficients(basis.dimension, rng)
            value, grad = objective.value_and_gradient(c)
            ref_value, ref_grad = quartic_reference(basis, c)
            assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-13)
            assert objective.value(c) == value
            assert_allclose(grad, ref_grad, rtol=0, atol=1e-12 * max(1.0, ref_value))

    def test_swaps_read_zero_outside_the_joint_support(self):
        # The value is the Werner expression of the true swap expectations
        # even where a swapped multi-index leaves the support; a misindexed
        # image would read some other member's amplitude instead.
        basis = balanced_not_invariant_basis()
        objective = PairDeficitObjective(basis)
        rng = np.random.default_rng(90)
        for _ in range(3):
            c = random_unit_coefficients(basis.dimension, rng)
            psi = basis.combine(c)
            expected = 0.0
            for a, b in combinations(range(4), 2):
                order = list(range(4))
                order[a], order[b] = b, a
                swap = psi.overlap(permute_particles(psi, order)).real
                expected += werner_deficit(psi.norm() ** 2, swap, 2)
            assert objective.value(c) == pytest.approx(expected, abs=1e-13)

    def test_rejects_shapes_whose_codes_overflow(self):
        # 2**64 multi-indices cannot be coded in int64.
        shape = SystemShape(64, 2)
        states = (PureState(shape, {(0, 1) * 32: 1.0}), PureState(shape, {(1, 0) * 32: 1.0}))
        with pytest.raises(ValueError, match="overflow"):
            PairDeficitObjective(SingletBasis(shape=shape, tolerance=1e-9, states=states))

    def test_build_memory_is_pairs_times_rank_squared(self, basis_cache):
        # 66 pairs x 132**2 complex swap entries are 18 MB; a quartic
        # tensor over 132**2 coefficient pairs would be 4.5 GiB.
        basis = basis_cache(12, 2)
        tracemalloc.start()
        try:
            PairDeficitObjective(basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_gradient_check_trivial_for_rank_one(self, basis_cache):
        assert gradient_check(basis_cache(2, 2)) == 0.0

    @pytest.mark.parametrize("n", [2, 5])
    def test_one_level_shape_matches_quartic_reference_off_the_sphere(self, n, basis_cache):
        # At d = 1 the Werner form is 0/0: every pair marginal is (t), s_A = t.
        objective = PairDeficitObjective(basis_cache(n, 1))
        for scale in [0.3, 1.0, 1.7]:
            c = np.array([scale * np.exp(0.4j)])
            value, grad = objective.value_and_gradient(c)
            ref_value, ref_grad = quartic_reference(objective.basis, c)
            assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-13)
            assert objective.value(c) == value
            assert_allclose(grad, ref_grad, rtol=0, atol=1e-12 * max(1.0, ref_value))


class TestMinimizeDeficit:
    # independently cross-checked minima of the pair deficit on each subspace
    FROZEN_MINIMA = {
        (2, 2): 0.75,
        (3, 3): 2 / 3,
        (4, 2): 0.5,
        (6, 2): 0.45,
        (6, 3): 8 / 15,
    }

    @pytest.mark.parametrize("n,d", sorted(FROZEN_MINIMA))
    def test_reaches_frozen_minimum(self, n, d, basis_cache):
        result = minimize_deficit(basis_cache(n, d), restarts=8, seed=0)
        assert result.converged
        assert result.deficit == pytest.approx(self.FROZEN_MINIMA[(n, d)], abs=1e-8)

    @pytest.mark.parametrize("n,d", [(8, 2), (10, 2), (8, 4), (9, 3)])
    def test_reaches_werner_jensen_bound(self, n, d, basis_cache):
        result = minimize_deficit(basis_cache(n, d), restarts=8, seed=0)
        assert result.converged
        assert result.deficit == pytest.approx(float(werner_jensen_bound(n, d)), abs=1e-8)

    def test_barzilai_borwein_descent_stays_under_the_cap(self, basis_cache, monkeypatch):
        # Projected descent restarting each line search at step 1 made about
        # 82 000 value calls here, with one restart at the iteration cap.
        calls = {"value": 0}
        iterations = []
        value, descend = PairDeficitObjective.value, optimize._descend

        def counted_value(self, coeffs):
            calls["value"] += 1
            return value(self, coeffs)

        def recorded_descend(*args):
            outcome = descend(*args)
            iterations.append(outcome[3])
            return outcome

        monkeypatch.setattr(PairDeficitObjective, "value", counted_value)
        monkeypatch.setattr(optimize, "_descend", recorded_descend)
        max_iters = 10000
        result = minimize_deficit(basis_cache(8, 2), restarts=16, max_iters=max_iters, seed=0)
        assert len(iterations) == 16 and max(iterations) < max_iters
        assert calls["value"] < 20000
        assert result.converged

    def test_one_objective_evaluation_per_trial_point(self, basis_cache, monkeypatch):
        # Re-evaluating each accepted point for its gradient, after the
        # line search had evaluated it for its value, made 13 869
        # evaluations here.
        calls = {"evaluate": 0}
        evaluate = PairDeficitObjective._evaluate

        def counted_evaluate(self, c):
            calls["evaluate"] += 1
            return evaluate(self, c)

        monkeypatch.setattr(PairDeficitObjective, "_evaluate", counted_evaluate)
        result = minimize_deficit(basis_cache(8, 2), restarts=16, seed=0)
        assert result.converged
        assert calls["evaluate"] < 10000

    def test_rank_one_subspace_needs_no_search(self, basis_cache, bell):
        result = minimize_deficit(basis_cache(2, 2), restarts=4, seed=0)
        assert result.iterations == 0
        assert result.deficit == pytest.approx(pair_deficit(bell), abs=1e-12)

    def test_respects_certificate_floor(self, basis_cache):
        for key in [(4, 2), (6, 2), (6, 3)]:
            result = minimize_deficit(basis_cache(*key), restarts=8, seed=1)
            floor = float(certify(SystemShape(*key)).deficit_floor)
            assert result.floor == pytest.approx(floor)
            assert result.deficit >= floor - 1e-9
            assert result.deficit > 1e-3

    def test_restarts_agree(self, basis_cache):
        result = minimize_deficit(basis_cache(6, 2), restarts=16, seed=0)
        spread = max(result.restart_deficits) - min(result.restart_deficits)
        assert len(result.restart_deficits) == 16
        assert spread <= 1e-6

    def test_trajectory_monotone_and_consistent(self, basis_cache):
        result = minimize_deficit(basis_cache(4, 2), restarts=4, seed=5)
        trajectory = np.array(result.trajectory)
        assert np.all(np.diff(trajectory) <= 1e-12)
        assert trajectory[-1] == pytest.approx(result.deficit, abs=1e-12)

    def test_coefficients_are_unit_norm_and_reproduce_deficit(self, basis_cache):
        basis = basis_cache(6, 3)
        result = minimize_deficit(basis, restarts=4, seed=3)
        c = np.array(result.coefficients)
        assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)
        state = basis.combine(c)
        assert pair_deficit(state) == pytest.approx(result.deficit, abs=1e-10)

    def test_flat_valley_starts_still_terminate(self, basis_cache):
        # some starts land on the valley floor where the Armijo margin
        # underflows below one ulp; the line search must stall out
        # there instead of burning the whole iteration cap (seeds 1 and
        # 11 both used to do exactly that)
        basis = basis_cache(6, 2)
        for seed in [0, 1, 5, 11, 42]:
            result = minimize_deficit(basis, restarts=4, seed=seed)
            assert result.converged, f"seed {seed} failed to converge"
            assert result.iterations < 5000
            assert result.deficit == pytest.approx(0.45, abs=1e-8)

    def test_seeded_runs_are_identical(self, basis_cache):
        basis = basis_cache(4, 2)
        a = minimize_deficit(basis, restarts=4, seed=9)
        b = minimize_deficit(basis, restarts=4, seed=9)
        assert a.deficit == b.deficit
        assert a.coefficients == b.coefficients
        assert a.restart_deficits == b.restart_deficits

    def test_endpoint_is_stationary_on_the_sphere(self, basis_cache):
        basis = basis_cache(6, 2)
        objective = PairDeficitObjective(basis)
        result = minimize_deficit(basis, restarts=8, seed=0)
        c = np.array(result.coefficients)
        _, grad = objective.value_and_gradient(c)
        tangent = grad - np.real(np.vdot(c, grad)) * c
        assert np.linalg.norm(tangent) < 1e-6

    def test_endpoint_survives_random_perturbations(self, basis_cache):
        """No nearby point on the sphere does better: local minimality probe."""
        basis = basis_cache(4, 2)
        objective = PairDeficitObjective(basis)
        result = minimize_deficit(basis, restarts=8, seed=0)
        c = np.array(result.coefficients)
        rng = np.random.default_rng(77)
        for _ in range(200):
            bump = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            probe = c + 1e-3 * bump
            probe /= np.linalg.norm(probe)
            assert objective.value(probe) >= result.deficit - 1e-9

    def test_rejects_a_negative_iteration_cap(self, basis_cache):
        with pytest.raises(ValueError, match="max_iters"):
            minimize_deficit(basis_cache(4, 2), max_iters=-3)

    def test_rejects_a_basis_that_is_not_invariant(self):
        # The swap form reports the certificate floor 1/12 here, while the
        # state it returns has pair deficit 5/2.
        with pytest.raises(ValueError, match="0.0833333333333.*2.5"):
            minimize_deficit(balanced_not_invariant_basis(), restarts=2)

    def test_rejects_bad_arguments(self, basis_cache):
        with pytest.raises(ValueError):
            minimize_deficit(basis_cache(4, 2), restarts=0)
        from singletlab import build_singlet_basis

        with pytest.raises(ValueError):
            minimize_deficit(build_singlet_basis(SystemShape(3, 2)))


def test_result_serialization(basis_cache):
    basis = basis_cache(4, 2)
    result = minimize_deficit(basis, restarts=4, seed=2)
    payload = result_to_dict(result, basis)
    assert payload["n"] == 4 and payload["d"] == 2
    assert payload["converged"] is True
    assert payload["deficit"] == pytest.approx(0.5, abs=1e-8)
    assert payload["floor_decimal"] == pytest.approx(1 / 12)
    assert len(payload["coefficients"]) == 2
    assert payload["state"]["n"] == 4


class TestLeastSquaresDescent:
    # Ladder shapes with d >= 2 up to the size of (10,2).
    SHAPES = [(4, 2), (6, 2), (8, 2), (10, 2), (6, 3), (9, 3), (8, 4)]

    @pytest.mark.parametrize("n,d", SHAPES)
    def test_value_is_the_sum_of_squared_swap_residuals(self, n, d, basis_cache):
        # On the unit sphere D(c) = kappa d sum_A (s_A - 1/d)**2; each s_A
        # is read here as the overlap of the state with its site-swapped copy.
        basis = basis_cache(n, d)
        objective = PairDeficitObjective(basis)
        kappa = 1.0 / (d * (d * d - 1))
        rng = np.random.default_rng(100 + n * d)
        for _ in range(3):
            c = random_unit_coefficients(basis.dimension, rng)
            psi = basis.combine(c)
            residuals = []
            for a, b in combinations(range(n), 2):
                order = list(range(n))
                order[a], order[b] = b, a
                residuals.append(psi.overlap(permute_particles(psi, order)).real - 1.0 / d)
            expected = kappa * d * float(np.sum(np.square(residuals)))
            assert objective.value(c) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("n,d", SHAPES)
    def test_jacobian_rows_match_central_differences(self, n, d, basis_cache):
        # g_A = 2 (S_A c - s_A c) is the derivative of s_A along any
        # tangent direction, read with the real inner product Re <g_A, v>.
        objective = PairDeficitObjective(basis_cache(n, d))
        r = objective.dimension
        rng = np.random.default_rng(110 + n * d)
        c = random_unit_coefficients(r, rng)
        _, products, s, _ = objective._evaluate(c)
        rows = 2.0 * (products - s[:, None] * c)
        step = 1e-3
        for _ in range(4):
            direction = rng.standard_normal(r) + 1j * rng.standard_normal(r)
            direction -= np.vdot(c, direction).real * c
            direction /= np.linalg.norm(direction)
            forward = objective._evaluate(c + step * direction)[2]
            backward = objective._evaluate(c - step * direction)[2]
            numeric = (forward - backward) / (2.0 * step)
            assert_allclose((rows.conj() @ direction).real, numeric, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n,d", [(8, 2), (8, 4), (6, 3)])
    def test_every_restart_converges_in_tens_of_iterations(self, n, d, basis_cache, monkeypatch):
        # First-order descent spent up to 7 223 iterations of one (8,2)
        # restart (seed 2) and 4 450 of one (8,4) restart in a sublinear
        # tail near the degenerate minimum.
        basis = basis_cache(n, d)
        objective = PairDeficitObjective(basis)
        iterations = []
        descend = optimize._descend

        def recorded_descend(*args):
            outcome = descend(*args)
            c, _, converged, steps = outcome
            _, grad = objective.value_and_gradient(c)
            tangent = 2.0 * (grad - np.vdot(c, grad).real * c)
            assert converged and np.linalg.norm(tangent) <= optimize.DEFAULT_GTOL
            iterations.append(steps)
            return outcome

        monkeypatch.setattr(optimize, "_descend", recorded_descend)
        bound = float(werner_jensen_bound(n, d))
        for seed in range(10):
            result = minimize_deficit(basis, restarts=16, seed=seed)
            assert all(abs(final - bound) <= 1e-12 for final in result.restart_deficits)
            assert list(result.restart_iterations) == iterations[-16:]
        assert len(iterations) == 160 and max(iterations) <= 100

    def test_restart_iterations_align_with_restart_deficits(self, basis_cache):
        basis = basis_cache(6, 3)
        result = minimize_deficit(basis, restarts=5, seed=4)
        assert len(result.restart_iterations) == 5 == len(result.restart_deficits)
        winner = result.restart_deficits.index(min(result.restart_deficits))
        assert result.restart_iterations[winner] == result.iterations
        assert result_to_dict(result, basis)["restart_iterations"] == list(result.restart_iterations)
        assert minimize_deficit(basis_cache(2, 2), restarts=3).restart_iterations == (0,)

    @pytest.mark.parametrize("gtol", [-1e-8, float("nan"), float("inf")])
    def test_rejects_a_gtol_that_is_negative_or_not_finite(self, gtol, basis_cache):
        # A NaN gtol never passes gnorm <= gtol, so every restart used to
        # run to a stall or the cap and come back not converged.
        with pytest.raises(ValueError, match="gtol"):
            minimize_deficit(basis_cache(4, 2), gtol=gtol)


class TestSeeding:
    """Start points come from ``random.Random(seed)``, under numpy's seed contract."""

    def test_start_points_are_gauss_draws_real_half_first(self, basis_cache, monkeypatch):
        basis = basis_cache(6, 3)
        r = basis.dimension
        starts = []
        descend = optimize._descend

        def recorded_descend(objective, start, *args):
            starts.append(start)
            return descend(objective, start, *args)

        monkeypatch.setattr(optimize, "_descend", recorded_descend)
        minimize_deficit(basis, restarts=3, seed=11)
        rng = random.Random(11)
        for start in starts:
            draws = [rng.gauss(0.0, 1.0) for _ in range(2 * r)]
            assert start.tolist() == [complex(x, y) for x, y in zip(draws[:r], draws[r:])]
        assert len(starts) == 3

    def test_negative_seed_is_a_value_error(self, basis_cache):
        # random.Random(-1) would silently equal random.Random(1).
        basis = basis_cache(4, 2)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            minimize_deficit(basis, seed=-1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            gradient_check(basis, seed=-1)

    def test_non_integer_seed_is_a_type_error(self, basis_cache):
        with pytest.raises(TypeError):
            minimize_deficit(basis_cache(4, 2), seed=1.5)

    def test_numpy_integer_seed_matches_the_int(self, basis_cache):
        basis = basis_cache(6, 3)
        result = minimize_deficit(basis, restarts=4, seed=np.int64(3))
        assert result == minimize_deficit(basis, restarts=4, seed=3)
        assert type(result.seed) is int
        assert result_to_dict(result, basis) == result_to_dict(
            minimize_deficit(basis, restarts=4, seed=3), basis
        )
        assert gradient_check(basis, seed=np.int64(3)) == gradient_check(basis, seed=3)

    def test_optimize_leaves_numpy_random_unimported(self, basis_cache, tmp_path):
        basis_path = str(tmp_path / "basis_8_4.json")
        save_basis(basis_cache(8, 4), basis_path, phase="trivial")
        code = (
            "import sys\n"
            "from singletlab import cli\n"
            "code = cli.main(['optimize', '--basis', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(code, 'numpy.random' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, basis_path, str(tmp_path / "best_8_4.json")],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"
        assert "converged: yes" in proc.stdout.splitlines()
