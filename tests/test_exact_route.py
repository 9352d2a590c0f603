"""One exact invariance rule in every command.

``check-invariance`` reads a unit state's balanced support and then its
collective raising residual against ``verify``'s limit; ``verify-lemmas``
takes the phase dichotomy and det power from ``phase_stamp`` and checks
the sign relation on the ``d - 1`` adjacent label transpositions.  The
references are the dense Haar route (``verify_invariance``,
``extract_phase_function``) and the sign relation on all ``d!`` label
permutations, which the commands no longer run.
"""

import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys

import numpy as np
import pytest

from singletlab import (
    PureState,
    SingletBasis,
    SystemShape,
    check_sign_relation,
    extract_phase_function,
    save_basis,
    save_state,
    verify_invariance,
)
from singletlab import cli, singlet, states
from singletlab.cli import main
from singletlab.singlet import (
    PhaseFunctionError,
    adjacent_transpositions,
    invariance_limit,
    invariance_residual,
    phase_stamp,
)
from singletlab.states import DEFAULT_TOL

from conftest import random_balanced_state

LADDER = [(4, 2), (6, 2), (8, 2), (10, 2), (12, 2), (6, 3), (9, 3), (8, 4)]


def singlet_pairs(n):
    """Product of two-site singlets on sites (0, 1), (2, 3), ...: ``2**(n/4)`` rows."""
    words = itertools.product([(0, 1), (1, 0)], repeat=n // 2)
    return PureState(
        SystemShape(n, 2),
        {sum(word, ()): (-1) ** sum(a for a, _ in word) * 2 ** (-n / 4) for word in words},
    )


def perturbed(member, delta=1e-6):
    """``member`` with its first stored amplitude moved by ``delta``, renormalized."""
    values = np.array(member.values)
    values[0] += delta
    values /= np.linalg.norm(values)
    return PureState(member.shape, dict(zip(member.support(), values)), canonicalize=False)


def haar_verdicts(state, tol=DEFAULT_TOL):
    """What the dense route decided: Haar invariance, then the phase fit, or None."""
    invariant = verify_invariance(state, samples=4, seed=0) <= tol
    try:
        report = extract_phase_function(state, samples=4, seed=0, tol=tol)
    except PhaseFunctionError:
        report = None
    return invariant, report


def exact_verdicts(state, tol=DEFAULT_TOL):
    residual = invariance_residual(state, tol)
    invariant = residual is not None and residual <= invariance_limit(tol)
    try:
        report = phase_stamp(state, tol)
    except PhaseFunctionError:
        report = None
    return invariant, report


def assert_routes_agree(state):
    (haar_invariant, haar), (exact_invariant, exact) = haar_verdicts(state), exact_verdicts(state)
    assert exact_invariant == haar_invariant == (exact is not None) == (haar is not None)
    if exact is not None:
        assert (exact.permutation_phase, exact.det_power) == (haar.permutation_phase, haar.det_power)
        assert exact.residual <= 1e-12


def loop_sign_relation(state, phase, tol=DEFAULT_TOL):
    return all(
        check_sign_relation(state, perm, phase, tol)
        for perm in itertools.permutations(range(state.shape.d))
    )


def generator_sign_relation(state, phase, tol=DEFAULT_TOL):
    d = state.shape.d
    return all(
        check_sign_relation(state, swap, phase, tol / max(1, math.comb(d, 2)))
        for swap in adjacent_transpositions(d)
    )


class TestExactAgainstHaar:
    @pytest.mark.parametrize("shape", LADDER + [(6, 6), (7, 7)], ids=str)
    def test_every_member(self, basis_cache, shape):
        basis = basis_cache(*shape)
        for member in basis:
            assert_routes_agree(member)
        stamp = phase_stamp(basis[0])
        assert stamp.det_power == shape[0] // shape[1]

    @pytest.mark.parametrize("shape", LADDER, ids=str)
    def test_perturbed_members(self, basis_cache, shape):
        for member in basis_cache(*shape).states[:3]:
            assert_routes_agree(perturbed(member))

    def test_other_states(self, bell, qutrit, four_qubit, ring6):
        shape = SystemShape(4, 2)
        others = [
            bell,
            qutrit,
            four_qubit,
            ring6,
            PureState(shape, {(0, 0, 1, 1): 1.0}),
            PureState(shape, {(label,) * 4: 2**-0.5 for label in range(2)}),
            PureState(SystemShape(2, 2), {(0, 1): 0.9**0.5, (1, 0): 0.1**0.5}),
            PureState(SystemShape(3, 2), {(0, 0, 1): 1.0}),
            PureState(SystemShape(3, 1), {(0, 0, 0): 1.0}),
            random_balanced_state(SystemShape(6, 3), np.random.default_rng(4)),
        ]
        for state in others:
            assert_routes_agree(state)

    @pytest.mark.parametrize("measure", [invariance_residual, phase_stamp])
    def test_unnormalized_state_is_a_value_error(self, bell, measure):
        with pytest.raises(ValueError, match="state norm is 3") as caught:
            measure(bell.scaled(3.0))
        assert not isinstance(caught.value, PhaseFunctionError)


class TestGeneratorSignRelation:
    """Generators within tol / (d(d-1)/2) decide as the d! loop did."""

    @pytest.mark.parametrize("shape", LADDER + [(5, 5)], ids=str)
    def test_members_and_perturbed_members(self, basis_cache, shape):
        for member in basis_cache(*shape):
            for state in (member, perturbed(member)):
                for phase in ("trivial", "signum"):
                    expected = loop_sign_relation(state, phase)
                    assert generator_sign_relation(state, phase) == expected

    def test_lopsided_state(self):
        lopsided = PureState(SystemShape(2, 2), {(0, 1): np.sqrt(0.9), (1, 0): np.sqrt(0.1)})
        for phase in ("trivial", "signum"):
            assert generator_sign_relation(lopsided, phase) is loop_sign_relation(lopsided, phase)
            assert not generator_sign_relation(lopsided, phase)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_generators_are_the_adjacent_transpositions(self, d):
        swaps = adjacent_transpositions(d)
        assert len(swaps) == d - 1
        for k, swap in enumerate(swaps):
            assert sorted(swap) == list(range(d))
            assert [label for label in range(d) if swap[label] != label] == [k, k + 1]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("exact")
    paths = {"basis": str(root / "basis_6_3.json"), "state": str(root / "member.json")}
    basis = singlet.build_singlet_basis(SystemShape(6, 3))
    save_basis(basis, paths["basis"])
    save_state(basis[1], paths["state"])
    return paths


def test_no_command_reaches_the_dense_or_sampled_route(files, tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a CLI command reached the dense, Haar or d! route")

    monkeypatch.setattr(states.PureState, "to_dense", forbidden)
    monkeypatch.setattr(states, "_local_image", forbidden)
    monkeypatch.setattr(singlet, "_local_image", forbidden)
    monkeypatch.setattr(singlet, "haar_unitary", forbidden)
    monkeypatch.setattr(cli, "permutations", forbidden, raising=False)
    relations = []
    check = cli.check_sign_relation

    def recorded(state, perm, phase, tol):
        relations.append(tuple(perm))
        return check(state, perm, phase, tol)

    monkeypatch.setattr(cli, "check_sign_relation", recorded)
    # The basis build expands each column determinant over the d! label
    # permutations once; nothing else asks for them.
    expansions = []
    expand = singlet.permutations
    monkeypatch.setattr(singlet, "permutations", lambda labels: expansions.append(1) or expand(labels))
    basis = str(tmp_path / "basis.json")
    assert main(["subspace", "--n", "6", "--d", "3", "--out", basis]) == 0
    assert expansions == [1]
    monkeypatch.setattr(singlet, "permutations", forbidden)
    commands = [
        ["check-invariance", "--state", files["state"]],
        ["uniformity", "--state", files["state"], "--k", "1"],
        ["verify-lemmas", "--basis", basis],
        ["certify", "--n", "6", "--d", "3"],
        ["verify", "--basis", basis, "--trials", "3"],
        ["optimize", "--basis", basis, "--restarts", "2"],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    assert relations == adjacent_transpositions(3) * 5


def test_commands_leave_numpy_random_unimported(files):
    code = (
        "import sys\n"
        "from singletlab import cli\n"
        "codes = [cli.main(['check-invariance', '--state', sys.argv[1]]),\n"
        "         cli.main(['verify-lemmas', '--basis', sys.argv[2]])]\n"
        "print(codes, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, files["state"], files["basis"]],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] False"


class TestCommandOutputs:
    @pytest.mark.parametrize("command", ["check-invariance", "verify-lemmas"])
    def test_samples_is_a_usage_error(self, files, command, capsys):
        flag, path = ("--state", files["state"]) if command == "check-invariance" else (
            "--basis",
            files["basis"],
        )
        with pytest.raises(SystemExit) as info:
            main([command, flag, path, "--samples", "3"])
        assert info.value.code == 2
        assert "unrecognized arguments: --samples 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check-invariance", "verify-lemmas"])
    def test_unnormalized_state_exits_2(self, tmp_path, bell, command, capsys):
        path = str(tmp_path / "scaled.json")
        save_state(bell.scaled(2.0), path)
        flag = "--state" if command == "check-invariance" else "--basis"
        assert main([command, flag, path]) == 2
        assert capsys.readouterr().err.startswith("error: state norm is 2")

    def test_check_invariance_artifact(self, files, tmp_path, capsys):
        out = str(tmp_path / "invariance.json")
        assert main(["check-invariance", "--state", files["state"], "--out", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "balanced support: yes" and lines[-1] == "invariant: yes"
        payload = json.loads(open(out).read())
        assert sorted(payload) == ["invariant", "limit", "residual", "seed", "tolerance"]
        assert payload["limit"] == invariance_limit(DEFAULT_TOL) == max(DEFAULT_TOL, 1e-12) * 100
        assert payload["residual"] < 1e-12 and payload["invariant"] is True

    def test_unbalanced_state_is_not_invariant(self, tmp_path, capsys):
        path = str(tmp_path / "ghz.json")
        save_state(PureState(SystemShape(4, 2), {(0,) * 4: 2**-0.5, (1,) * 4: 2**-0.5}), path)
        out = str(tmp_path / "invariance.json")
        assert main(["check-invariance", "--state", path, "--out", out]) == 1
        assert capsys.readouterr().out.splitlines() == ["balanced support: no", "invariant: no"]
        payload = json.loads(open(out).read())
        assert payload["residual"] is None and payload["invariant"] is False

    def test_generators_are_held_to_a_share_of_tol(self, basis_cache, tmp_path, capsys):
        # A 5e-10 gap passes the stamp and every one of the d! permutations at
        # tol = 1e-9, but not its generators at tol / 3.
        member = perturbed(basis_cache(6, 3)[0], delta=5e-10)
        assert phase_stamp(member).permutation_phase == "trivial"
        assert loop_sign_relation(member, "trivial")
        path = str(tmp_path / "nudged.json")
        save_state(member, path)
        assert main(["verify-lemmas", "--basis", path]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("member 0: dichotomy=pass (trivial, det power 2)")
        assert ", sign-relation=FAIL," in lines[0] and lines[-1] == "all lemma checks: FAIL"

    def test_lemma_artifact_reads_the_stamp(self, files, tmp_path):
        out = str(tmp_path / "lemmas.json")
        assert main(["verify-lemmas", "--basis", files["basis"], "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert sorted(payload) == ["members", "passed", "seed", "tolerance"]
        for row in payload["members"]:
            assert row["permutation_phase"] == "trivial" and row["det_power"] == 2
            assert row["phase_residual"] < 1e-12 and row["sign_relation"] is True


def capped_run(argv, cap):
    return subprocess.run(
        [sys.executable, "-m", "singletlab.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


@pytest.mark.parametrize(
    "command,verdict",
    [("check-invariance", "invariant: yes"), ("verify-lemmas", "all lemma checks: pass")],
)
def test_32_qubit_singlet_pairs_pass_under_512_mib(tmp_path_factory, command, verdict):
    # Its dense vector would take 2**32 * 16 bytes = 64 GiB; it stores 65536 rows.
    path = tmp_path_factory.getbasetemp() / "pairs_32_2.json"
    if not path.exists():
        save_state(singlet_pairs(32), str(path))
    flag = "--state" if command == "check-invariance" else "--basis"
    proc = capped_run([command, flag, str(path)], 512 << 20)
    assert proc.returncode == 0, proc.stderr
    assert verdict in proc.stdout.splitlines()


@pytest.mark.parametrize("command", ["check-invariance", "verify-lemmas"])
def test_raising_image_is_priced_before_it_is_formed(tmp_path_factory, command):
    # 2000 balanced rows of 1100 qubits: 1.1e6 raising terms at 2300 bytes each.
    path = tmp_path_factory.getbasetemp() / "rows_1100_2.json"
    if not path.exists():
        rng = random.Random(0)
        words = set()
        while len(words) < 2000:
            word = [0, 1] * 550
            rng.shuffle(word)
            words.add(tuple(word))
        save_state(PureState(SystemShape(1100, 2), {w: 2000**-0.5 for w in words}), str(path))
    flag = "--state" if command == "check-invariance" else "--basis"
    proc = capped_run([command, flag, str(path)], 1 << 30)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(
        "error: the raising image of n=1100 sites with d=2 levels would take about 2.36 GiB"
    )


def test_verify_refuses_members_that_store_no_rows(tmp_path, capsys):
    member = {"n": 4, "d": 2, "amplitudes": []}
    document = {"n": 4, "d": 2, "K": 2, "dimension": 2, "tolerance": 1e-9}
    document.update(permutation_phase="trivial", seed=0, states=[member, member])
    path = str(tmp_path / "empty_members.json")
    with open(path, "w") as handle:
        json.dump(document, handle)
    assert main(["verify", "--basis", path, "--trials", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "certificate violation: basis member 0 does not have balanced support\n"


def test_pair_marginal_is_priced_before_numpy_allocates(tmp_path):
    shape = SystemShape(2, 300)
    member = PureState(shape, {(0, 1): 2**-0.5, (1, 0): -(2**-0.5)})
    path = str(tmp_path / "basis_2_300.json")
    save_basis(SingletBasis(shape, 1e-9, [member]), path, phase="signum")
    proc = capped_run(["optimize", "--basis", path], 1 << 30)
    assert proc.returncode == 2
    assert proc.stderr.startswith(
        "error: 2-site marginals of n=2 sites with d=300 levels would take about 121 GiB"
    )
