"""Every command's JSON artifact records the tolerance and seed that produced it."""

import json

import pytest

from singletlab import SystemShape, build_singlet_basis, save_basis, save_state
from singletlab.cli import build_parser, main

SEED, TOL = 3, 1e-8


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A (4,2) basis file and a state file holding its first member."""
    root = tmp_path_factory.mktemp("provenance")
    basis = build_singlet_basis(SystemShape(4, 2))
    save_basis(basis, str(root / "basis.json"))
    save_state(basis[0], str(root / "state.json"))
    return {"basis": str(root / "basis.json"), "state": str(root / "state.json")}


COMMANDS = {
    "subspace": ["subspace", "--n", "4", "--d", "2"],
    "check-invariance": ["check-invariance", "--state", "{state}"],
    "uniformity": ["uniformity", "--state", "{state}", "--k", "1"],
    "verify-lemmas": ["verify-lemmas", "--basis", "{basis}"],
    "certify": ["certify", "--n", "4", "--d", "2"],
    "verify": ["verify", "--basis", "{basis}", "--trials", "2"],
    "optimize": ["optimize", "--basis", "{basis}", "--restarts", "2"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_artifact_records_seed_and_tolerance(inputs, tmp_path, capsys, command):
    out = str(tmp_path / "artifact.json")
    argv = [word.format(**inputs) for word in COMMANDS[command]]
    assert main(argv + ["--seed", str(SEED), "--tol", repr(TOL), "--out", out]) == 0
    capsys.readouterr()
    with open(out, encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["seed"] == SEED
    assert document["tolerance"] == TOL


def test_every_command_is_covered():
    (choices,) = [action.choices for action in build_parser()._actions if action.dest == "command"]
    assert set(choices) == set(COMMANDS)
