"""End-to-end tests of the command-line interface (in-process)."""

import json
import os
import resource
import subprocess
import sys
import time

import pytest

from singletlab import (
    PureState,
    SystemShape,
    build_singlet_basis,
    save_basis,
    save_state,
)
from singletlab import _json, cli, fixtures
from singletlab.cli import main

from conftest import BAD_TOLERANCES, DATA_DIR, with_tolerance

RING6 = os.path.join(DATA_DIR, "graph_state_ring6.json")


@pytest.fixture(scope="module")
def bell_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("states") / "bell.json")
    fixtures.export("bell_singlet", path)
    return path


@pytest.fixture(scope="module")
def product_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("states") / "product.json")
    save_state(PureState(SystemShape(4, 2), {(0, 0, 1, 1): 1.0}), path)
    return path


@pytest.fixture(scope="module")
def basis42_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("bases") / "basis42.json")
    save_basis(build_singlet_basis(SystemShape(4, 2)), path)
    return path


class TestSubspace:
    def test_builds_and_reports_dimension(self, capsys, tmp_path):
        out = str(tmp_path / "basis.json")
        assert main(["subspace", "--n", "4", "--d", "2", "--out", out]) == 0
        assert "dimension: 2" in capsys.readouterr().out
        payload = json.loads(open(out).read())
        assert payload["dimension"] == 2
        assert len(payload["states"]) == 2

    def test_non_divisible_shape_reports_zero(self, capsys):
        assert main(["subspace", "--n", "3", "--d", "2"]) == 0
        assert "dimension: 0" in capsys.readouterr().out

    @pytest.mark.parametrize("n, d, phase", [(6, 3, "trivial"), (9, 3, "signum")])
    def test_zero_tolerance_measures_the_phase(self, capsys, n, d, phase):
        assert main(["subspace", "--n", str(n), "--d", str(d), "--tol", "0"]) == 0
        assert f"permutation_phase: {phase}" in capsys.readouterr().out

    def test_artifact_is_reproducible(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        assert main(["subspace", "--n", "6", "--d", "2", "--out", a]) == 0
        assert main(["subspace", "--n", "6", "--d", "2", "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()


class TestCheckInvariance:
    def test_singlet_passes(self, bell_file, capsys):
        assert main(["check-invariance", "--state", bell_file]) == 0
        assert "invariant: yes" in capsys.readouterr().out

    def test_product_state_fails(self, product_file, capsys):
        assert main(["check-invariance", "--state", product_file]) == 1
        assert "invariant: no" in capsys.readouterr().out

    def test_artifact_written(self, bell_file, tmp_path):
        out = str(tmp_path / "inv.json")
        assert main(["check-invariance", "--state", bell_file, "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert payload["invariant"] is True
        assert payload["residual"] < 1e-12


class TestUniformity:
    def test_ring_state_is_two_uniform(self, capsys):
        assert main(["uniformity", "--state", RING6, "--k", "2"]) == 0
        assert "uniform: yes" in capsys.readouterr().out

    def test_ring_state_is_not_three_uniform(self, capsys):
        assert main(["uniformity", "--state", RING6, "--k", "3"]) == 1
        assert "uniform: no" in capsys.readouterr().out

    def test_invalid_k_is_usage_error(self, bell_file):
        assert main(["uniformity", "--state", bell_file, "--k", "5"]) == 2


class TestVerifyLemmas:
    def test_basis_passes(self, basis42_file, capsys):
        assert main(["verify-lemmas", "--basis", basis42_file]) == 0
        out = capsys.readouterr().out
        assert "all lemma checks: pass" in out

    def test_basis_file_is_parsed_once(self, basis42_file, monkeypatch):
        load = _json.load
        calls = []

        def counting_load(path):
            calls.append(path)
            return load(path)

        monkeypatch.setattr(_json, "load", counting_load)
        assert main(["verify-lemmas", "--basis", basis42_file]) == 0
        assert calls == [basis42_file]

    def test_single_state_file_accepted(self, bell_file):
        assert main(["verify-lemmas", "--basis", bell_file]) == 0

    def test_product_state_fails(self, product_file):
        assert main(["verify-lemmas", "--basis", product_file]) == 1

    @pytest.mark.parametrize("n,d", [(5, 2), (4, 2)])
    def test_empty_basis_is_exit_2(self, tmp_path, capsys, n, d):
        basis, report = tmp_path / "b.json", tmp_path / "r.json"
        document = {"n": n, "d": d, "dimension": 0, "tolerance": 1e-9, "states": []}
        basis.write_text(json.dumps(document))
        assert main(["verify-lemmas", "--basis", str(basis), "--out", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: basis is empty\n"
        assert not report.exists()


class TestCertify:
    def test_prints_exact_fractions(self, capsys):
        assert main(["certify", "--n", "6", "--d", "2"]) == 0
        out = capsys.readouterr().out
        assert "required diagonal mass: 15/2" in out
        assert "deficit floor: 3/40" in out

    def test_artifact(self, tmp_path):
        out = str(tmp_path / "cert.json")
        assert main(["certify", "--n", "6", "--d", "3", "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert payload["deficit_floor"] == {"num": 4, "den": 45}


class TestVerify:
    def test_genuine_basis_passes(self, basis42_file, capsys):
        assert main(["verify", "--basis", basis42_file, "--trials", "10"]) == 0
        assert "certificate holds" in capsys.readouterr().out

    def test_corrupted_basis_fails(self, tmp_path, basis42_file):
        payload = json.loads(open(basis42_file).read())
        # zero out one amplitude: the file still parses but the member is no
        # longer invariant
        payload["states"][0]["amplitudes"][0]["re"] = 0.9
        bad = str(tmp_path / "tampered.json")
        with open(bad, "w") as handle:
            json.dump(payload, handle)
        assert main(["verify", "--basis", bad, "--trials", "5"]) == 1

    def test_shape_that_d_does_not_divide_exits_2(self, tmp_path, capsys):
        payload = {
            "n": 3,
            "d": 2,
            "K": None,
            "dimension": 1,
            "tolerance": 1e-9,
            "permutation_phase": None,
            "seed": 0,
            "states": [
                {"n": 3, "d": 2, "amplitudes": [{"index": [0, 0, 1], "re": 1.0, "im": 0.0}]}
            ],
        }
        path = str(tmp_path / "basis_3_2.json")
        with open(path, "w") as handle:
            json.dump(payload, handle)
        assert main(["verify", "--basis", path, "--trials", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: d=2 does not divide n=3")

    @pytest.mark.parametrize("literal", BAD_TOLERANCES)
    def test_tolerance_that_is_not_finite_and_nonnegative_exits_2(
        self, tmp_path, capsys, literal
    ):
        path = str(tmp_path / "basis.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(with_tolerance(os.path.join(DATA_DIR, "basis_6_3.json"), literal))
        assert main(["verify", "--basis", path, "--trials", "2"]) == 2
        assert "malformed basis document: 'tolerance' must be" in capsys.readouterr().err

    def test_replay_too_large_exits_2(self, tmp_path, capsys, address_space_cap):
        path = str(tmp_path / "basis_8_4.json")
        save_basis(build_singlet_basis(SystemShape(8, 4)), path)
        address_space_cap(1 << 20)
        assert main(["verify", "--basis", path, "--trials", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: replaying pair marginals of n=8 sites with d=4 levels")
        assert "GiB" in err


class TestOptimize:
    def test_reports_floor_and_deficit(self, basis42_file, tmp_path, capsys):
        out = str(tmp_path / "opt.json")
        code = main(
            ["optimize", "--basis", basis42_file, "--restarts", "4", "--out", out]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "best deficit" in text
        payload = json.loads(open(out).read())
        assert payload["deficit"] == pytest.approx(0.5, abs=1e-6)
        assert payload["deficit"] >= payload["floor_decimal"]

    def test_seeded_runs_identical(self, basis42_file, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        args = ["optimize", "--basis", basis42_file, "--restarts", "2", "--seed", "4"]
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()


class TestErrorHandling:
    def test_optimize_rejects_a_basis_that_is_not_invariant(self, tmp_path, capsys):
        # Orthonormal and balanced, but not invariant: verify exits 1 on it.
        payload = {
            "n": 4,
            "d": 2,
            "K": 2,
            "dimension": 2,
            "tolerance": 1e-9,
            "permutation_phase": None,
            "seed": 0,
            "states": [
                {"n": 4, "d": 2, "amplitudes": [{"index": index, "re": 1.0, "im": 0.0}]}
                for index in ([0, 0, 1, 1], [0, 1, 0, 1])
            ],
        }
        bad = str(tmp_path / "not_invariant.json")
        with open(bad, "w") as handle:
            json.dump(payload, handle)
        assert main(["optimize", "--basis", bad, "--restarts", "2"]) == 2
        assert "pair deficit 2.5" in capsys.readouterr().err

    def test_optimize_rejects_a_negative_iteration_cap(self, basis42_file, capsys):
        assert main(["optimize", "--basis", basis42_file, "--max-iters", "-3"]) == 2
        assert "max_iters must be >= 0, got -3" in capsys.readouterr().err

    def test_missing_file(self):
        assert main(["check-invariance", "--state", "/no/such/file.json"]) == 2

    def test_malformed_json(self, tmp_path):
        bad = str(tmp_path / "bad.json")
        open(bad, "w").write("{ not json")
        assert main(["uniformity", "--state", bad, "--k", "1"]) == 2

    def test_wrong_schema(self, tmp_path):
        bad = str(tmp_path / "schema.json")
        open(bad, "w").write('{"hello": 1}')
        assert main(["check-invariance", "--state", bad]) == 2

    def test_unwritable_output(self):
        code = main(["certify", "--n", "4", "--d", "2", "--out", "/nonexistent-dir/x.json"])
        assert code == 2

    def test_rank_guard_exits_2(self, capsys):
        assert main(["subspace", "--n", "2", "--d", "2", "--tol", "1e30"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(SystemExit) as info:
            main(["subspace", "--n", "2", "--d", "2", "--tol", tol])
        assert info.value.code == 2

    def test_memory_error_exits_2(self, monkeypatch, capsys):
        def exhausted(shape, tol):
            raise MemoryError("no room")

        monkeypatch.setattr(cli, "build_singlet_basis", exhausted)
        assert main(["subspace", "--n", "4", "--d", "2"]) == 2
        assert capsys.readouterr().err == "error: no room\n"

    def test_memory_error_without_text_is_named(self, monkeypatch, capsys):
        def exhausted(shape, tol):
            raise MemoryError

        monkeypatch.setattr(cli, "build_singlet_basis", exhausted)
        assert main(["subspace", "--n", "4", "--d", "2"]) == 2
        assert capsys.readouterr().err == "error: MemoryError\n"

    def test_oversized_shape_exits_2_under_address_space_cap(self):
        cap = 1 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "singletlab.cli", "subspace", "--n", "40", "--d", "2"],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "1 GiB" in proc.stderr

    @pytest.mark.parametrize(
        "command,verdict",
        [("check-invariance", "invariant: no"), ("verify-lemmas", "all lemma checks: FAIL")],
        ids=["check-invariance", "verify-lemmas"],
    )
    def test_40_qubit_state_exits_1_under_address_space_cap(self, command, verdict, tmp_path):
        # 2**40 amplitudes densely; the exact check reads the two stored rows.
        path = str(tmp_path / "big.json")
        save_state(
            PureState(SystemShape(40, 2), {(0, 1) * 20: 2**-0.5, (1, 0) * 20: 2**-0.5}), path
        )
        flag = "--state" if command == "check-invariance" else "--basis"
        cap = 1 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "singletlab.cli", command, flag, path],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == "" and verdict in proc.stdout.splitlines()

    def test_artifact_too_large_exits_2_before_the_build(self):
        # The (12,3) basis alone fits in 1 GiB; its 462 x 34650 amplitudes
        # as artifact dicts do not, and that is known before the build.
        cap = 1 << 30
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "singletlab.cli", "subspace", "--n", "12", "--d", "3"],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "JSON document" in proc.stderr
        assert "support 34650, dimension 462" in proc.stderr and "1 GiB" in proc.stderr
        assert time.perf_counter() - start < 5.0


class TestOneLevelShape:
    def test_optimize_reports_deficit_zero_against_floor_zero(self, tmp_path, capsys):
        # At d = 1 every pair marginal is the 1 x 1 matrix (1) = I / 1.
        basis = str(tmp_path / "basis_2_1.json")
        out = str(tmp_path / "opt.json")
        assert main(["subspace", "--n", "2", "--d", "1", "--out", basis]) == 0
        assert main(["optimize", "--basis", basis, "--out", out]) == 0
        text = capsys.readouterr().out
        assert "best deficit: 0\n" in text and "certificate floor: 0\n" in text
        payload = _json.load(out)
        assert payload["deficit"] == 0.0 and payload["floor"] == {"num": 0, "den": 1}


class TestMalformedNumbers:
    """Index entries that are not integers and amplitudes that are not finite
    numbers are parse errors (exit 2), not values to convert."""

    def test_float_indices_are_not_truncated(self, tmp_path, capsys):
        # Truncated, these would be the Bell singlet's (0, 1) and (1, 0).
        entries = [([0.9, 1.7], 2**-0.5), ([1.2, 0.3], -(2**-0.5))]
        payload = {
            "n": 2,
            "d": 2,
            "amplitudes": [{"index": index, "re": re, "im": 0.0} for index, re in entries],
        }
        path = str(tmp_path / "float_index.json")
        with open(path, "w") as handle:
            json.dump(payload, handle)
        assert main(["check-invariance", "--state", path]) == 2
        assert "malformed state document" in capsys.readouterr().err

    def test_shape_fields_are_not_coerced(self, bell_file, tmp_path, capsys):
        # int() would read these as the Bell singlet's shape (2, 2).
        payload = json.loads(open(bell_file).read())
        payload["n"], payload["d"] = 2.7, "2"
        path = str(tmp_path / "bell_coerced.json")
        with open(path, "w") as handle:
            json.dump(payload, handle)
        assert main(["check-invariance", "--state", path]) == 2
        assert "malformed state document: 'n' must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["optimize", "verify"])
    @pytest.mark.parametrize(
        "part, text",
        [("re", '"-0.7"'), ("im", "false"), ("re", "NaN"), ("im", "Infinity"), ("re", "1e400")],
    )
    def test_basis_amplitude_must_be_a_finite_number(
        self, basis42_file, tmp_path, capsys, command, part, text
    ):
        payload = json.loads(open(basis42_file).read())
        payload["states"][1]["amplitudes"][2][part] = "@"
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as handle:
            handle.write(json.dumps(payload).replace('"@"', text))
        assert main([command, "--basis", bad, "--seed", "1"]) == 2
        assert "malformed state document" in capsys.readouterr().err
