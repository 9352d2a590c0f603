"""Timing wrappers for a traced child process.

Installed only in children started with tracing on.  Each wrapper
replaces a name at the place a consumer module reads it (``optimize``
binds ``cross_marginal`` itself, ``nogo`` and ``uniformity`` each bind
``partial_trace``, and so on), so calls a module makes internally to its
own helpers are not counted twice.  Nothing under ``src/`` is changed.

A span is ``[name, start, end, parent]`` with ``parent`` the index of
the enclosing span (or -1).  Spans stay in memory and are written out
once, when the child ends; self times are derived from them later.
Counters record sizes measured at the same boundaries.
"""

from __future__ import annotations

import functools
import os
import time

_clock = time.perf_counter


class Recorder:
    """In-memory spans and counters of one child process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def wrap(self, name: str, func, measure=None):
        """Return ``func`` timed as span ``name``.

        ``measure(args, kwargs, result)`` may add counters after a call
        returns; it runs outside the span.
        """
        spans = self.spans
        stack = self._stack

        @functools.wraps(func)
        def timed(*args, **kwargs):
            index = len(spans)
            record = [name, _clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = _clock()
                stack.pop()
            if measure is not None:
                measure(args, kwargs, result)
            return result

        return timed


class _Proxy:
    """Attribute view of a module with a few names replaced."""

    def __init__(self, target, **overrides) -> None:
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def install(recorder: Recorder) -> None:
    """Wrap the pipeline's layer boundaries at their consumers' bindings."""
    import numpy

    from singletlab import _json, cli, nogo, optimize, singlet, uniformity

    wrap = recorder.wrap

    def file_bytes(counter: str, path_arg: int):
        def measure(args, kwargs, result):
            recorder.count(counter, os.path.getsize(args[path_arg]))

        return measure

    def svd_bytes(matrix, *args, **kwargs):
        # Size of the full left factor U (rows x rows, complex128) that
        # the call asks for, computed from the input shape before it runs.
        rows = matrix.shape[0]
        recorder.count("singlet.svd.computed_bytes", rows * rows * 16)
        return timed_svd(matrix, *args, **kwargs)

    timed_svd = wrap("singlet.svd", numpy.linalg.svd)
    singlet.np = _Proxy(numpy, linalg=_Proxy(numpy.linalg, svd=svd_bytes))

    singlet.enumerate_support = wrap(
        "states.enumerate_support",
        singlet.enumerate_support,
        lambda a, k, result: recorder.count("states.support_size", len(result)),
    )
    cli.build_singlet_basis = wrap(
        "singlet.build_singlet_basis",
        cli.build_singlet_basis,
        lambda a, k, result: recorder.count("singlet.dimension", result.dimension),
    )
    singlet.extract_phase_function = wrap(
        "singlet.extract_phase_function", singlet.extract_phase_function
    )
    singlet.apply_local = wrap("states.apply_local", singlet.apply_local)
    singlet.superpose = wrap("states.superpose", singlet.superpose)
    singlet.SingletBasis.gram = wrap("singlet.gram", singlet.SingletBasis.gram)
    nogo.verify_invariance = wrap("singlet.verify_invariance", nogo.verify_invariance)
    cli.load_basis = wrap(
        "singlet.load_basis", cli.load_basis, file_bytes("singlet.load_basis.bytes", 0)
    )

    cli.verify_certificate_numerically = wrap(
        "nogo.verify_certificate_numerically", cli.verify_certificate_numerically
    )
    nogo.counting_sum = wrap("nogo.counting_sum", nogo.counting_sum)
    nogo.partial_trace = wrap("states.partial_trace", nogo.partial_trace)
    nogo.pair_deficit = wrap("uniformity.pair_deficit", nogo.pair_deficit)
    uniformity.partial_trace = wrap("states.partial_trace", uniformity.partial_trace)
    cli.is_k_uniform = wrap("uniformity.is_k_uniform", cli.is_k_uniform)

    objective = optimize.PairDeficitObjective
    cli.minimize_deficit = wrap("optimize.minimize_deficit", cli.minimize_deficit)
    objective.__init__ = wrap("optimize.objective_build", objective.__init__)
    objective.value = wrap("optimize.value", objective.value)
    objective.value_and_gradient = wrap(
        "optimize.value_and_gradient", objective.value_and_gradient
    )
    optimize._descend = wrap("optimize.restart", optimize._descend)
    optimize.cross_marginal = wrap("states.cross_marginal", optimize.cross_marginal)

    _json.dump = wrap("json.dump", _json.dump, file_bytes("json.dump.bytes", 1))
