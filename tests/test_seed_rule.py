"""One seed rule for every command.

A negative ``--seed`` is refused like a bad ``--tol``: exit 2 through
the argument parser, one ``--seed must be >= 0`` line on stderr, nothing
on stdout and no artifact, before any file is read.  ``verify``'s trials
and ``SingletBasis.sample`` draw from ``random.Random(seed)`` as
``optimize``'s restarts do, under numpy's seed contract, so no command
loads ``numpy.random``.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from singletlab import save_basis, verify_certificate_numerically
from singletlab.cli import main

# Required arguments of each subcommand; the files need not exist, since
# the seed is checked before anything is read.
COMMANDS = {
    "subspace": ["--n", "4", "--d", "2"],
    "check-invariance": ["--state", "missing.json"],
    "uniformity": ["--state", "missing.json", "--k", "1"],
    "verify-lemmas": ["--basis", "missing.json"],
    "certify": ["--n", "4", "--d", "2"],
    "verify": ["--basis", "missing.json"],
    "optimize": ["--basis", "missing.json"],
}


@pytest.mark.parametrize("seed", ["-1", "-12345678901234567890"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command, seed):
    out = tmp_path / "artifact.json"
    with pytest.raises(SystemExit) as info:
        main([command, *COMMANDS[command], "--seed", seed, "--out", str(out)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"singletlab: error: --seed must be >= 0, got {seed}"
    assert not out.exists()


@pytest.mark.parametrize("command", ["subspace", "certify"])
def test_seed_zero_is_accepted(tmp_path, command):
    out = tmp_path / "artifact.json"
    assert main([command, *COMMANDS[command], "--seed", "0", "--out", str(out)]) == 0
    assert out.exists()


def test_verify_leaves_numpy_random_unimported(basis_cache, tmp_path):
    basis_path = str(tmp_path / "basis_8_4.json")
    save_basis(basis_cache(8, 4), basis_path, phase="trivial")
    code = (
        "import sys\n"
        "from singletlab import cli\n"
        "code = cli.main(['verify', '--basis', sys.argv[1], '--trials', '3', '--out', sys.argv[2]])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, basis_path, str(tmp_path / "verify_8_4.json")],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert "certificate holds" in proc.stdout.splitlines()


def test_numpy_integer_seed_matches_the_int(basis_cache):
    basis = basis_cache(6, 3)
    check = verify_certificate_numerically(basis, trials=4, seed=np.int64(3))
    assert check == verify_certificate_numerically(basis, trials=4, seed=3)
    assert type(check.seed) is int
    for state, same in zip(basis.sample(4, np.int64(3)), basis.sample(4, 3)):
        assert np.array_equal(state.digits, same.digits)
        assert np.array_equal(state.values.view(np.int64), same.values.view(np.int64))


def test_negative_seed_is_a_value_error(basis_cache):
    # random.Random(-1) would silently equal random.Random(1).
    basis = basis_cache(4, 2)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        verify_certificate_numerically(basis, trials=2, seed=-1)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        basis.sample(2, seed=-1)


def test_non_integer_seed_is_a_type_error(basis_cache):
    basis = basis_cache(4, 2)
    with pytest.raises(TypeError):
        verify_certificate_numerically(basis, trials=2, seed=1.5)
    with pytest.raises(TypeError):
        basis.sample(2, seed=1.5)
