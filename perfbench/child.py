"""Run ``singletlab.cli.main`` calls in this process and report on them.

Usage: ``python3 child.py SPEC.json RESULT.json``.  The spec holds the
address-space cap in bytes, whether to trace, and a list of argv lists.
The cap is set before numpy is imported, so an oversized allocation
raises ``MemoryError`` here instead of waking the kernel's OOM killer.
The result holds the import time, one record per call (exit code or
the exception that escaped, and the duration of the ``main`` call
alone), the process's peak resident set, and the trace when tracing was on.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def peak_rss_kb() -> int:
    """High-water resident set of this process's own address space.

    Not ``ru_maxrss``: exec records the parent's peak there, because
    ``subprocess`` starts the child with vfork on the parent's memory.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    cap = int(spec["cap_bytes"])
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    start = time.perf_counter()
    import singletlab  # noqa: F401  (the import is what is timed)
    from singletlab import cli

    import_s = time.perf_counter() - start

    recorder = None
    if spec["trace"]:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
        cli_main = recorder.wrap("cli.main", cli.main)
    else:
        cli_main = cli.main

    calls = []
    devnull = open(os.devnull, "w", encoding="utf-8")
    for argv in spec["calls"]:
        record = {"argv": argv, "exit": None, "exception": None}
        saved, sys.stdout = sys.stdout, devnull
        start = time.perf_counter()
        try:
            record["exit"] = cli_main(list(argv))
        except MemoryError:
            record["exception"] = "MemoryError"
        except Exception as exc:  # a crash is a result to report, not to stop on
            record["exception"] = f"{type(exc).__name__}: {exc}"
        finally:
            record["wall_s"] = time.perf_counter() - start
            sys.stdout = saved
        calls.append(record)
    devnull.close()

    result = {"import_s": import_s, "calls": calls, "peak_rss_kb": peak_rss_kb()}
    if recorder is not None:
        result["spans"] = recorder.spans
        result["counters"] = recorder.counters
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
