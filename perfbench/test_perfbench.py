"""Self-tests of the benchmark: ``python3 -m pytest perfbench``.

They run the real harness on the smallest shapes, (4,2) and (6,3), so
the whole file takes seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import oracles
import run

SMALL = [(4, 2), (6, 3)]


@pytest.fixture
def work():
    path = os.path.join(run.ROOT, ".perfbench_work", f"test-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def test_declared_metrics_match_the_harness():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(work, name, trace):
    workload = run.WORKLOADS[name](7, work, shapes=SMALL)
    result = run.run_workload(workload, work, seconds=0.1, trace=trace)
    assert result["correct"] is True
    assert result["attempted"] >= len(SMALL) and result["failed"] == 0
    expected = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_corrupted_basis_counts_as_failure(work):
    workload = run.replay_pairs(7, work, shapes=[(6, 3)], trials=5)

    def flip_one_amplitude() -> None:
        path = workload.setup_calls[0][-1]
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        entry = doc["states"][0]["amplitudes"][0]
        entry["re"], entry["im"] = -entry["re"], -entry["im"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)

    workload.make_inputs = flip_one_amplitude
    result = run.run_workload(workload, work, seconds=0.1, trace=False)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_ratio"]["value"] == 0.0


def test_refuses_to_run_without_the_program(work):
    copy = os.path.join(work, "perfbench")
    shutil.copytree(run.HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), work)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-ladder", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=work, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_oracles_on_known_values():
    assert [oracles.tableau_count(n, d) for n, d in run.LADDER] == [2, 5, 14, 42, 132, 5, 42, 14]
    assert oracles.counting_floor(6, 2) == Fraction(3, 40)
    assert oracles.werner_minimum(8, 2) == Fraction(3, 7)
    assert oracles.werner_minimum(6, 3) == Fraction(8, 15)
    psi = oracles.random_invariant_state(4, 2, seed=0)
    assert abs(oracles.uniformity_deficit(psi, 1)) < 1e-12
    assert oracles.uniformity_deficit(psi, 2) > 0.1
