"""A negative ``--seed`` is a usage error in every subcommand.

It is refused like a bad ``--tol``: exit 2 through the argument parser,
one ``--seed must be >= 0`` line on stderr, nothing on stdout and no
artifact, before any file is read.
"""

import pytest

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
