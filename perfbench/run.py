"""Benchmark of the singletlab ``subspace -> verify -> optimize`` pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every CLI operation runs through ``singletlab.cli.main`` in a fresh
child process (``child.py``) under an address-space cap, one child at a
time, with one BLAS thread.  The seed reaches the program only as
``--seed`` and through the input files built in set-up.  Every output is
checked against an oracle in ``oracles.py`` that does not use the code
it checks; an operation fails on a wrong exit code, a failed check,
``MemoryError`` under the cap, or a timeout.

With ``--trace 0`` the run sets up ``SETUP_REPEATS`` times, then repeats
passes over the workload's operations while the next pass is expected
to end within ``--seconds`` (at least one pass), and prints the
end-to-end metrics.  With ``--trace 1`` it sets up once with tracing on,
makes one untraced and one traced pass, and prints the per-layer
metrics; those counts repeat exactly for a given seed.  The last line of
standard output is one JSON object; the lines before it describe the
environment and every operation.  See README.md for the workloads and
what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: One BLAS thread per child: steadier times on a small shared host
#: (2 cores, 7 GB), and bit-identical descent paths.
BLAS_THREADS = 1
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread setting)

import oracles  # noqa: E402

#: Address-space cap of every child: well below the host's 7 GB, well
#: above the 0.75 GB peak of the largest shape that succeeds.
CAP_BYTES = 3 << 30
OP_TIMEOUT_S = 75.0
SETUP_TIMEOUT_S = 120.0
SETUP_REPEATS = 5
UNIFORM_TOL = 1e-9

LADDER = [(4, 2), (6, 2), (8, 2), (10, 2), (12, 2), (6, 3), (9, 3), (8, 4)]
REPLAY_SHAPES = [(10, 2), (6, 3)]
REPLAY_TRIALS = 40
SEARCH_SHAPES = [(8, 2), (6, 3)]
SEARCH_RESTARTS = 16
AME_SHAPES = [(12, 2), (10, 2)]

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "setup_s": "s",
}

_TIMED = [
    "singlet.build_singlet_basis",
    "singlet.svd",
    "singlet.extract_phase_function",
    "singlet.verify_invariance",
    "singlet.gram",
    "singlet.load_basis",
    "states.partial_trace",
    "states.cross_marginal",
    "states.apply_local",
    "states.superpose",
    "nogo.counting_sum",
    "uniformity.pair_deficit",
    "uniformity.is_k_uniform",
    "optimize.objective_build",
    "json.dump",
]
_CALLED = [
    "states.partial_trace",
    "states.cross_marginal",
    "states.apply_local",
    "nogo.counting_sum",
    "uniformity.pair_deficit",
    "optimize.value",
    "optimize.value_and_gradient",
]
_COUNTERS = {
    "singlet.svd.computed_bytes": "bytes",
    "states.support_size": "count",
    "singlet.dimension": "count",
    "singlet.load_basis.bytes": "bytes",
    "json.dump.bytes": "bytes",
}
PER_LAYER = {
    "import_s": "s",
    "cli.main.self_s": "s",
    **{f"{name}.s": "s" for name in _TIMED},
    **{f"{name}.calls": "count" for name in _CALLED},
    **_COUNTERS,
    "nogo.verify_certificate_numerically.self_s": "s",
    "optimize.descent.s": "s",
    "optimize.accept_ratio": "ratio",
    "tracing.spans": "count",
    "tracing.overhead_s": "s",
}


# --- workloads ----------------------------------------------------------


@dataclass
class Op:
    """One timed CLI call, the exit code it must give and its output check."""

    label: str
    argv: list[str]
    out: str
    expect_exit: Callable[[], int]
    check: Callable[[dict], str | None]


@dataclass
class Workload:
    """Program calls that build the inputs, benchmark code that adds to them, and the ops."""

    setup_calls: list[list[str]] = field(default_factory=list)
    make_inputs: Callable[[], None] | None = None
    ops: list[Op] = field(default_factory=list)


def _tag(n: int, d: int) -> str:
    return f"{n}_{d}"


def _check_subspace(n: int, d: int) -> Callable[[dict], str | None]:
    expected = oracles.tableau_count(n, d)
    phase = "signum" if (n // d) % 2 else "trivial"

    def check(doc: dict) -> str | None:
        if doc["dimension"] != expected or len(doc["states"]) != expected:
            states = len(doc["states"])
            return f"dimension {doc['dimension']} ({states} states), tableaux {expected}"
        if doc["permutation_phase"] != phase:
            return f"permutation_phase {doc['permutation_phase']}, expected {phase}"
        return None

    return check


def _check_verify(n: int, d: int, trials: int) -> Callable[[dict], str | None]:
    floor = float(oracles.counting_floor(n, d))

    def check(doc: dict) -> str | None:
        if doc["trials"] != trials or doc["passed"] is not True:
            return f"trials {doc['trials']}, passed {doc['passed']}"
        if doc["deficit_floor"] != floor:
            return f"floor {doc['deficit_floor']!r}, exact certificate {floor!r}"
        if not doc["min_pair_deficit"] >= floor:
            return f"min pair deficit {doc['min_pair_deficit']!r} below floor {floor!r}"
        return None

    return check


def _check_optimize(n: int, d: int) -> Callable[[dict], str | None]:
    target = float(oracles.werner_minimum(n, d))

    def check(doc: dict) -> str | None:
        if doc["converged"] is not True:
            return "did not converge"
        if abs(doc["deficit"] - target) > 1e-8:
            return f"deficit {doc['deficit']!r}, minimum {target!r}"
        return None

    return check


def _check_uniformity(doc: dict, expected: float, k: int) -> str | None:
    if doc["k"] != k or doc["is_k_uniform"] != (expected <= UNIFORM_TOL):
        return f"k {doc['k']}, is_k_uniform {doc['is_k_uniform']}"
    if abs(doc["deficit"] - expected) > 1e-9 * max(1.0, expected):
        return f"deficit {doc['deficit']!r}, dense oracle {expected!r}"
    return None


def _zero() -> int:
    return 0


def build_ladder(seed: int, work: str, shapes=LADDER) -> Workload:
    wl = Workload()
    for n, d in shapes:
        out = os.path.join(work, f"basis_{_tag(n, d)}.json")
        argv = ["subspace", "--n", str(n), "--d", str(d), "--seed", str(seed), "--out", out]
        wl.ops.append(Op(f"subspace({n},{d})", argv, out, _zero, _check_subspace(n, d)))
    return wl


def _basis_setup(wl: Workload, seed: int, work: str, shapes) -> list[str]:
    paths = []
    for n, d in shapes:
        path = os.path.join(work, f"input_basis_{_tag(n, d)}.json")
        wl.setup_calls.append(
            ["subspace", "--n", str(n), "--d", str(d), "--seed", str(seed), "--out", path]
        )
        paths.append(path)
    return paths


def replay_pairs(seed: int, work: str, shapes=REPLAY_SHAPES, trials=REPLAY_TRIALS) -> Workload:
    wl = Workload()
    for (n, d), basis in zip(shapes, _basis_setup(wl, seed, work, shapes)):
        out = os.path.join(work, f"verify_{_tag(n, d)}.json")
        argv = [
            "verify", "--basis", basis, "--trials", str(trials), "--seed", str(seed), "--out", out,
        ]
        wl.ops.append(Op(f"verify({n},{d})", argv, out, _zero, _check_verify(n, d, trials)))
    return wl


def search_pairs(seed: int, work: str, shapes=SEARCH_SHAPES) -> Workload:
    # The seed permutes the sites of the bases and leaves the restart
    # points at the CLI's default seed 0.  Restart points decide how many
    # of the 16 descents run into the iteration cap (1 to 6 of them),
    # which moves the work by about 25% from one seed to the next; a
    # site permutation changes the input but not the work.
    wl = Workload()
    bases = _basis_setup(wl, seed, work, shapes)
    wl.make_inputs = lambda: [oracles.permute_sites(path, seed) for path in bases]
    for (n, d), basis in zip(shapes, bases):
        out = os.path.join(work, f"optimize_{_tag(n, d)}.json")
        argv = ["optimize", "--basis", basis, "--restarts", str(SEARCH_RESTARTS), "--out", out]
        wl.ops.append(Op(f"optimize({n},{d})", argv, out, _zero, _check_optimize(n, d)))
    return wl


def ame_marginals(seed: int, work: str, shapes=AME_SHAPES) -> Workload:
    wl = Workload()
    states: dict[tuple[int, int], np.ndarray] = {}
    expected: dict[tuple[int, int], float] = {}

    def make_inputs() -> None:
        for n, d in shapes:
            states[n, d] = oracles.random_invariant_state(n, d, seed)
            oracles.write_state(states[n, d], os.path.join(work, f"state_{_tag(n, d)}.json"))

    def deficit(n: int, d: int) -> float:
        # Computed on first use, after set-up wrote the state.
        if (n, d) not in expected:
            expected[n, d] = oracles.uniformity_deficit(states[n, d], n // 2)
        return expected[n, d]

    wl.make_inputs = make_inputs
    for n, d in shapes:
        k = n // 2
        state = os.path.join(work, f"state_{_tag(n, d)}.json")
        out = os.path.join(work, f"uniformity_{_tag(n, d)}.json")
        argv = ["uniformity", "--state", state, "--k", str(k), "--seed", str(seed), "--out", out]
        exit_code = lambda n=n, d=d: 0 if deficit(n, d) <= UNIFORM_TOL else 1
        check = lambda doc, n=n, d=d, k=k: _check_uniformity(doc, deficit(n, d), k)
        wl.ops.append(Op(f"uniformity({n},{d},k={k})", argv, out, exit_code, check))
    return wl


WORKLOADS = {
    "build-ladder": build_ladder,
    "replay-pairs": replay_pairs,
    "search-pairs": search_pairs,
    "ame-marginals": ame_marginals,
}


# --- children -----------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # the same dict layouts in every child
    return env


def run_child(work: str, calls: list[list[str]], trace: bool, timeout: float) -> dict:
    """Run ``calls`` in one capped child; return its report or a failure record."""
    spec = os.path.join(work, "spec.json")
    result = os.path.join(work, "result.json")
    if os.path.exists(result):
        os.remove(result)
    with open(spec, "w", encoding="utf-8") as handle:
        json.dump({"cap_bytes": CAP_BYTES, "trace": trace, "calls": calls}, handle)
    command = [sys.executable, os.path.join(HERE, "child.py"), spec, result]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        elapsed = time.perf_counter() - start
        return {"failure": f"timeout after {timeout:.0f} s", "elapsed_s": elapsed}
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or not os.path.exists(result):
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return {"failure": f"child exit {proc.returncode} {tail}", "elapsed_s": elapsed}
    with open(result, encoding="utf-8") as handle:
        return json.load(handle)


def classify(op: Op, report: dict) -> tuple[str, str]:
    """Status (ok, oom, error or wrong) of one operation, with a reason."""
    if "failure" in report:
        return "error", report["failure"]
    call = report["calls"][0]
    if call["exception"] == "MemoryError":
        return "oom", "MemoryError under the address-space cap"
    if call["exception"]:
        return "error", call["exception"]
    if call["exit"] != op.expect_exit():
        return "error", f"exit {call['exit']}, expected {op.expect_exit()}"
    try:
        with open(op.out, encoding="utf-8") as handle:
            problem = op.check(json.load(handle))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problem = f"unreadable artifact: {exc}"
    return ("wrong", problem) if problem else ("ok", "")


@dataclass
class OpResult:
    status: str
    reason: str
    wall_s: float
    maxrss_mb: float | None
    report: dict


def run_op(op: Op, work: str, trace: bool) -> OpResult:
    if os.path.exists(op.out):
        os.remove(op.out)
    report = run_child(work, [op.argv], trace, OP_TIMEOUT_S)
    status, reason = classify(op, report)
    if "failure" in report:
        wall, rss = report["elapsed_s"], None
    else:
        wall, rss = report["calls"][0]["wall_s"], report["peak_rss_kb"] / 1024.0
    return OpResult(status, reason, wall, rss, report)


class SetupError(RuntimeError):
    """The workload's inputs could not be built, so there is nothing to measure."""


def set_up(wl: Workload, work: str, trace: bool) -> tuple[float, dict]:
    """Build the workload's inputs once; return the set-up time and the child report."""
    report = run_child(work, wl.setup_calls, trace, SETUP_TIMEOUT_S)
    if "failure" in report:
        raise SetupError(f"set-up child failed: {report['failure']}")
    for call in report["calls"]:
        if call["exception"] or call["exit"] != 0:
            raise SetupError(f"set-up call {call['argv']} failed: {call}")
    seconds = report["import_s"] + sum(call["wall_s"] for call in report["calls"])
    if wl.make_inputs is not None:
        start = time.perf_counter()
        wl.make_inputs()
        seconds += time.perf_counter() - start
    return seconds, report


# --- metrics ------------------------------------------------------------


def span_totals(reports: list[dict]) -> tuple[dict, dict, dict, dict, int]:
    """Per span name: calls, inclusive seconds and self seconds; plus counters."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    counters: dict[str, int] = {}
    spans_seen = 0
    for report in reports:
        spans = report.get("spans", [])
        spans_seen += len(spans)
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child_time):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - inner)
        for name, value in report.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    return calls, total, own, counters, spans_seen


def per_layer_metrics(reports: list[dict], overhead: float) -> dict:
    calls, total, own, counters, spans = span_totals(reports)
    values = {
        "import_s": statistics.median(r["import_s"] for r in reports),
        "cli.main.self_s": own.get("cli.main", 0.0),
        "nogo.verify_certificate_numerically.self_s": own.get(
            "nogo.verify_certificate_numerically", 0.0
        ),
        "optimize.descent.s": total.get("optimize.minimize_deficit", 0.0)
        - total.get("optimize.objective_build", 0.0),
        "tracing.spans": spans,
        "tracing.overhead_s": overhead,
    }
    values.update({f"{name}.s": total.get(name, 0.0) for name in _TIMED})
    values.update({f"{name}.calls": calls.get(name, 0) for name in _CALLED})
    values.update({name: counters.get(name, 0) for name in _COUNTERS})
    trials = calls.get("optimize.value", 0)
    accepted = calls.get("optimize.value_and_gradient", 0) - calls.get("optimize.restart", 0)
    values["optimize.accept_ratio"] = accepted / trials if trials else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def run_pass(wl: Workload, work: str, trace: bool) -> list[OpResult]:
    results = []
    for op in wl.ops:
        result = run_op(op, work, trace)
        results.append(result)
        print(
            f"  {op.label:<24} {result.status:<5} {result.wall_s:9.3f} s"
            + (f"  {result.maxrss_mb:8.1f} MB" if result.maxrss_mb is not None else "")
            + (f"  {result.reason}" if result.reason else ""),
            flush=True,
        )
    return results


def environment() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return (
        f"environment: nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
        f"numpy {np.__version__}, BLAS {blas_text}, BLAS threads {BLAS_THREADS}, "
        f"address-space cap {CAP_BYTES / 2**30:g} GiB per child, one child at a time"
    )


def run_workload(wl: Workload, work: str, seconds: float, trace: bool) -> dict:
    """Set up, measure, and return the final result object."""
    print(environment(), flush=True)
    passes: list[list[OpResult]] = []
    if trace:
        _, setup_report = set_up(wl, work, trace=True)
        print("untraced pass:", flush=True)
        passes.append(run_pass(wl, work, trace=False))
        print("traced pass:", flush=True)
        passes.append(run_pass(wl, work, trace=True))
    else:
        setups = [set_up(wl, work, trace=False)[0] for _ in range(SETUP_REPEATS)]
        print(f"setup: {', '.join(f'{s:.3f}' for s in setups)} s", flush=True)
        deadline = time.perf_counter() + seconds
        while True:
            started = time.perf_counter()
            print(f"pass {len(passes) + 1}:", flush=True)
            passes.append(run_pass(wl, work, trace=False))
            now = time.perf_counter()
            if now + (now - started) > deadline:
                break

    every = [result for one in passes for result in one]
    failed = sum(result.status != "ok" for result in every)
    correct = not any(result.status == "wrong" for result in every)
    pass_walls = [sum(result.wall_s for result in one) for one in passes]
    print(f"pass wall_s: {', '.join(f'{w:.3f}' for w in pass_walls)}", flush=True)
    if trace:
        traced = [result.report for result in passes[1] if "spans" in result.report]
        reports = [setup_report] + traced
        metrics = per_layer_metrics(reports, pass_walls[1] - pass_walls[0])
    else:
        rss = [result.maxrss_mb for result in every if result.maxrss_mb is not None]
        values = {
            "wall_s": statistics.median(pass_walls),
            "peak_rss_mb": max(rss) if rss else 0.0,
            "ok_ratio": (len(every) - failed) / len(every),
            "setup_s": statistics.median(setups),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": correct, "attempted": len(every), "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "singletlab", "cli.py")):
        print(f"error: no singletlab sources under {SRC}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind through subprocess.run (which kills the running
    # child) and the clean-up below instead of leaving them behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        result = run_workload(wl, work, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(work))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
