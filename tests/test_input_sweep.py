"""Generated documents through every file-reading command.

Two properties, each replayed on the same examples every run:

* A malformed document never escapes as an exception.  Every command
  returns 0, 1 or 2, and prints nothing to stdout when it refuses the
  input with exit 2.
* A genuine singlet is never rejected.  A unit combination of a ladder
  basis, with its sites and its labels permuted, passes
  ``check-invariance``, ``verify-lemmas``, ``uniformity --k 1`` and, as a
  one-member basis, ``verify``.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from singletlab import (
    LocalOperator,
    SingletBasis,
    apply_local,
    permute_particles,
    save_basis,
    save_state,
    state_to_dict,
)
from singletlab.cli import main

SWEEP = settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def run(argv):
    """Exit code and stdout of ``main(argv)``; stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


# --------------------------------------------------------------------------- #
# Malformed documents
# --------------------------------------------------------------------------- #

NON_FINITE = [math.nan, math.inf, -math.inf]
BAD_DIGITS = [-1, -5, 4, 7, 10**20, 0.0, 1.5, True, False]
BAD_PARTS = NON_FINITE + ["0.5", None, [0.5], {}, True]
WRONG_TYPES = [7, 2.5, "x", None, [], {}, [[0]], {"index": [0]}]
BAD_TOLERANCES = NON_FINITE + [-1.0, -1e-300, 10**400, "1e-9", None, True, [1e-9]]
BAD_INTEGERS = [-1, 0, 7, 2.0, True, "2", None, 10**20]


@st.composite
def members(draw, bases, n, d):
    """0-3 state documents of shape ``(n, d)``: the first members of the
    singlet basis ``bases(n, d)``, or rows drawn at random, balanced or not."""
    count = draw(st.integers(0, 3))
    if n % d == 0 and draw(st.booleans()):
        return [state_to_dict(state) for state in bases(n, d).states[:count]]
    documents = []
    for _ in range(count):
        rows = draw(st.lists(st.lists(st.integers(0, d - 1), min_size=n, max_size=n), max_size=6))
        parts = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]) | st.floats(-2, 2)
        values = [complex(draw(parts), draw(parts)) for _ in rows]
        norm = math.sqrt(sum(abs(z) ** 2 for z in values))
        if norm and draw(st.booleans()):
            values = [z / norm for z in values]
        entries = [{"index": row, "re": z.real, "im": z.imag} for row, z in zip(rows, values)]
        documents.append({"n": n, "d": d, "amplitudes": entries})
    return documents


def pick(draw, items):
    return draw(st.sampled_from(items)) if items else None


def corrupt(draw, document):
    """Apply one drawn fault to ``document``, or to what it holds, in place.

    The "top level" fault returns a replacement instead.
    """
    listed = document["states"] if isinstance(document["states"], list) else []
    states = [s for s in listed if isinstance(s, dict)]
    entries = [e for s in states if isinstance(s.get("amplitudes"), list) for e in s["amplitudes"]]
    entries = [e for e in entries if isinstance(e, dict)]
    indices = [e["index"] for e in entries if isinstance(e.get("index"), list)]
    fault = draw(
        st.sampled_from(
            [
                "index length", "digit", "part", "missing part", "amplitudes type",
                "entry type", "index type", "states type", "dimension", "tolerance",
                "member shape", "basis shape", "duplicate", "top level",
            ]
        )
    )
    if fault == "index length" and indices:
        index = pick(draw, indices)
        if index and draw(st.booleans()):
            index.pop()
        else:
            index.append(0)
    elif fault == "digit" and any(indices):
        index = pick(draw, [index for index in indices if index])
        index[draw(st.integers(0, len(index) - 1))] = draw(st.sampled_from(BAD_DIGITS))
    elif fault == "part" and entries:
        pick(draw, entries)[draw(st.sampled_from(["re", "im"]))] = draw(st.sampled_from(BAD_PARTS))
    elif fault == "missing part" and entries:
        pick(draw, entries).pop(draw(st.sampled_from(["re", "im"])), None)
    elif fault == "amplitudes type" and states:
        pick(draw, states)["amplitudes"] = draw(st.sampled_from(WRONG_TYPES))
    elif fault == "entry type" and states:
        member = pick(draw, states)
        if isinstance(member["amplitudes"], list) and member["amplitudes"]:
            position = draw(st.integers(0, len(member["amplitudes"]) - 1))
            member["amplitudes"][position] = draw(st.sampled_from(WRONG_TYPES))
    elif fault == "index type" and entries:
        pick(draw, entries)["index"] = draw(st.sampled_from(WRONG_TYPES + ["01"]))
    elif fault == "states type":
        document["states"] = draw(st.sampled_from(WRONG_TYPES))
    elif fault == "dimension":
        wrong = len(listed) + draw(st.sampled_from([-1, 1]))
        document["dimension"] = draw(st.sampled_from(BAD_INTEGERS + [wrong]))
    elif fault == "tolerance":
        if draw(st.booleans()):
            document["tolerance"] = draw(st.sampled_from(BAD_TOLERANCES))
        else:
            document.pop("tolerance", None)
    elif fault == "member shape" and states:
        pick(draw, states)[draw(st.sampled_from(["n", "d"]))] = draw(st.sampled_from(BAD_INTEGERS))
    elif fault == "basis shape":
        document[draw(st.sampled_from(["n", "d"]))] = draw(st.sampled_from(BAD_INTEGERS))
    elif fault == "duplicate" and states:
        member = pick(draw, states)
        if isinstance(member["amplitudes"], list) and member["amplitudes"]:
            member["amplitudes"].append(copy.deepcopy(pick(draw, member["amplitudes"])))
    elif fault == "top level":
        return draw(st.sampled_from([[], [document], 3, "basis", None]))
    return document


@st.composite
def malformed(draw, bases):
    """A basis document with 0-3 members of shape n <= 6, d <= 4, and 0-3 faults."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    states = draw(members(bases, n, d))
    document = {
        "n": n, "d": d, "K": n // d if n % d == 0 else None, "dimension": len(states),
        "tolerance": 1e-9, "permutation_phase": None, "seed": 0, "states": states,
    }
    for _ in range(draw(st.integers(0, 3))):
        if not isinstance(document, dict):
            break
        document = corrupt(draw, document)
    return document


def state_part(document):
    """The first member of a basis document, or the document itself when it has none."""
    if isinstance(document, dict):
        states = document.get("states")
        if isinstance(states, list) and states:
            return states[0]
    return document


def test_malformed_documents_exit_cleanly(basis_cache):
    with tempfile.TemporaryDirectory() as root:
        basis_path = os.path.join(root, "basis.json")
        state_path = os.path.join(root, "state.json")

        @SWEEP
        @given(malformed(basis_cache))
        def check(document):
            for path, value in ((basis_path, document), (state_path, state_part(document))):
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(value, handle)
            for argv in (
                ["check-invariance", "--state", state_path],
                ["uniformity", "--state", state_path, "--k", "1"],
                ["verify-lemmas", "--basis", basis_path],
                ["verify-lemmas", "--basis", state_path],
                ["verify", "--basis", basis_path, "--trials", "2"],
                ["optimize", "--basis", basis_path, "--restarts", "2"],
            ):
                code, out = run(argv)
                assert code in (0, 1, 2), (argv, code)
                if code == 2:
                    assert out == "", (argv, out)

        check()


def test_verify_lemmas_prints_nothing_before_a_later_members_refusal(tmp_path):
    # Member 0 is a unit state off balanced support (a lemma failure, exit 1
    # on its own); member 1 stores no rows, so its norm check refuses the file.
    unbalanced = [{"index": [0, 0], "re": 0.5, "im": 0.5}, {"index": [0, 1], "re": 0.5, "im": 0.5}]
    document = {
        "n": 2, "d": 3, "K": None, "dimension": 2, "tolerance": 1e-9, "permutation_phase": None,
        "seed": 0, "states": [
            {"n": 2, "d": 3, "amplitudes": unbalanced}, {"n": 2, "d": 3, "amplitudes": []},
        ],
    }
    path = str(tmp_path / "basis.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    assert run(["verify-lemmas", "--basis", path]) == (2, "")


# --------------------------------------------------------------------------- #
# Genuine singlets
# --------------------------------------------------------------------------- #

SINGLET_SHAPES = [(2, 2), (4, 2), (6, 2), (8, 2), (3, 3), (6, 3), (4, 4)]


@st.composite
def singlets(draw, bases):
    """A unit combination of a ladder basis with its sites and labels permuted."""
    n, d = draw(st.sampled_from(SINGLET_SHAPES))
    basis = bases(n, d)
    parts = st.floats(-1, 1)
    coefficients = np.array([complex(draw(parts), draw(parts)) for _ in range(basis.dimension)])
    assume(np.linalg.norm(coefficients) > 1e-3)
    state = basis.combine(coefficients).normalized()
    state = permute_particles(state, draw(st.permutations(range(n))))
    return apply_local(state, LocalOperator.basis_permutation(draw(st.permutations(range(d)))))


def test_genuine_singlets_pass_every_check(basis_cache):
    with tempfile.TemporaryDirectory() as root:
        basis_path = os.path.join(root, "basis.json")
        state_path = os.path.join(root, "state.json")

        @settings(SWEEP, max_examples=150)
        @given(singlets(basis_cache))
        def check(state):
            save_state(state, state_path)
            save_basis(SingletBasis(state.shape, 1e-9, [state]), basis_path)
            for argv in (
                ["check-invariance", "--state", state_path],
                ["verify-lemmas", "--basis", state_path],
                ["verify", "--basis", basis_path, "--trials", "3"],
                ["uniformity", "--state", state_path, "--k", "1"],
            ):
                code, out = run(argv)
                assert code == 0, (argv, out)

        check()
