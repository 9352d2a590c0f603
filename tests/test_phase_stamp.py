"""The permutation phase stamped on basis documents, read exactly.

``measure_phase`` stamps member 0's phase with no sampling: the member
must be a unit state on balanced support, its adjacent label
transpositions must return it times one common sign, the collective
raising operators must annihilate it, and for ``d >= 2`` that sign must
be ``(-1)**K``.  The reference is ``extract_phase_function``, which fits
Haar draws against ``det(U)``.  ``subspace`` therefore draws nothing: it
leaves ``numpy.random`` unimported and its output does not depend on
``--seed``, which the file only records.
"""

import itertools
import json
import os
import subprocess
import sys

import pytest

from singletlab import PureState, SingletBasis, SystemShape, extract_phase_function
from singletlab import nogo, singlet
from singletlab.cli import main
from singletlab.singlet import PhaseFunctionError, measure_phase

LADDER = [(4, 2), (6, 2), (8, 2), (10, 2), (12, 2), (6, 3), (9, 3), (8, 4)]


def singlet_pairs(pairs, n):
    """Product of two-site singlets on ``pairs``: amplitudes ``±2**(-K/2)``, signs from the order."""
    amplitudes = {}
    for word in itertools.product([(0, 1), (1, 0)], repeat=len(pairs)):
        digits = [0] * n
        for (a, b), (x, y) in zip(pairs, word):
            digits[a], digits[b] = x, y
        amplitudes[tuple(digits)] = (-1) ** sum(x for x, _ in word) * 2 ** (-len(pairs) / 2)
    return PureState(SystemShape(n, 2), amplitudes)


def basis_of(shape, *members):
    return SingletBasis(shape=shape, tolerance=1e-9, states=members)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("shape", LADDER + [(3, 1)], ids=str)
def test_stamp_equals_the_haar_fit(basis_cache, shape, seed):
    basis = basis_cache(*shape)
    fitted = extract_phase_function(basis[0], samples=8, seed=seed).permutation_phase
    assert measure_phase(basis, seed=seed) == fitted
    assert fitted == ("signum" if shape[1] >= 2 and (shape[0] // shape[1]) % 2 else "trivial")


def test_empty_basis_has_no_phase(basis_cache):
    assert measure_phase(basis_cache(5, 2)) is None


def test_raising_residuals_have_one_copy():
    assert nogo._raising_residuals is singlet._raising_residuals


@pytest.mark.parametrize(
    "pairings,phase",
    [
        ([[(0, 1)]], "signum"),
        ([[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]], "trivial"),
        ([[(0, 1), (2, 3), (4, 5)], [(0, 5), (1, 2), (3, 4)], [(0, 3), (1, 4), (2, 5)]], "signum"),
    ],
)
def test_singlet_pair_basis_is_stamped_from_an_exact_zero(pairings, phase):
    n = 2 * len(pairings[0])
    basis = basis_of(SystemShape(n, 2), *(singlet_pairs(pairs, n) for pairs in pairings))
    residuals = singlet._raising_residuals(basis.support, basis.amplitudes, 2)
    assert residuals.tolist() == [0.0] * len(pairings)
    assert measure_phase(basis) == phase


class TestRejections:
    def test_balanced_product(self):
        shape = SystemShape(4, 2)
        with pytest.raises(PhaseFunctionError, match=r"transposition \(0,1\) returns neither"):
            measure_phase(basis_of(shape, PureState(shape, {(0, 0, 1, 1): 1.0})))

    def test_unnormalized_member(self):
        member = singlet_pairs([(0, 1), (2, 3)], 4).scaled(2.0)
        with pytest.raises(PhaseFunctionError, match="not a unit state"):
            measure_phase(basis_of(member.shape, member))

    def test_unbalanced_member(self):
        shape = SystemShape(4, 2)
        member = PureState(shape, {(0, 0, 0, 0): 2**-0.5, (1, 1, 1, 1): 2**-0.5})
        with pytest.raises(PhaseFunctionError, match="balanced support"):
            measure_phase(basis_of(shape, member))

    def test_symmetric_member_that_the_raising_operators_move(self):
        # Both transpositions return it with sign +1; only the raising check fails.
        shape = SystemShape(4, 2)
        member = PureState(shape, {(0, 0, 1, 1): 2**-0.5, (1, 1, 0, 0): 2**-0.5})
        with pytest.raises(PhaseFunctionError, match="not collectively invariant"):
            measure_phase(basis_of(shape, member))

    def test_sign_against_the_parity_of_k(self, basis_cache, monkeypatch):
        signed = singlet._transposition_sign
        monkeypatch.setattr(
            singlet, "_transposition_sign", lambda *args: (-signed(*args)[0], 0.0)
        )
        with pytest.raises(PhaseFunctionError, match="contradicts K = 3"):
            measure_phase(basis_cache(6, 2))


def test_subspace_leaves_numpy_random_unimported(tmp_path):
    out = str(tmp_path / "basis_8_4.json")
    code = (
        "import sys\n"
        "from singletlab import cli\n"
        "code = cli.main(['subspace', '--n', '8', '--d', '4', '--out', sys.argv[1]])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, out],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert "permutation_phase: trivial" in proc.stdout.splitlines()


@pytest.mark.parametrize("shape", [(6, 2), (6, 3), (8, 4)], ids=str)
def test_seed_is_only_recorded(tmp_path, capsys, shape):
    outputs, texts = [], []
    for seed in (0, 3):
        path = tmp_path / f"basis_{seed}.json"
        argv = ["subspace", "--n", str(shape[0]), "--d", str(shape[1]), "--seed", str(seed)]
        assert main(argv + ["--out", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
        texts.append(path.read_text(encoding="utf-8"))
    assert outputs[0] == outputs[1]
    documents = [json.loads(text) for text in texts]
    assert [document.pop("seed") for document in documents] == [0, 3]
    assert documents[0] == documents[1]
    assert texts[1].replace('"seed": 3,', '"seed": 0,', 1) == texts[0]
    assert texts[0].count('"seed"') == 1
