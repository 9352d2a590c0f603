"""Shapes far beyond memory or recursion depth.

A shape whose basis or dense image could never fit is refused with a
:class:`MemoryError` (CLI exit 2), even when its byte count overflows a
float; the commands, which check invariance exactly and form no dense
image, answer a state or basis of such a shape, and a one-level shape of
any length is answered, with no recursion as deep as ``n``.
"""

import itertools

import pytest

from singletlab import (
    CertificateViolationError,
    PureState,
    SingletBasis,
    SupportProfile,
    SystemShape,
    build_singlet_basis,
    enumerate_support,
    save_basis,
    save_state,
    verify_certificate_numerically,
)
from singletlab.cli import main
from singletlab.singlet import check_memory, extract_phase_function, verify_invariance

# Two terms on 1100 qubits: 64 * 2**1100 bytes of dense image overflow a float.
HUGE_STATE = PureState(
    SystemShape(1100, 2), {(0, 1) * 550: 2**-0.5, (1, 0) * 550: 2**-0.5}, canonicalize=False
)

# Two balanced, orthonormal members on the same 1100 qubits.
HUGE_BASIS = SingletBasis(
    SystemShape(1100, 2),
    1e-9,
    [PureState(SystemShape(1100, 2), {word: 1.0}) for word in ((0, 1) * 550, (1, 0) * 550)],
)


@pytest.fixture(scope="module")
def huge_state_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("states") / "huge.json")
    save_state(HUGE_STATE, path)
    return path


@pytest.fixture(scope="module")
def huge_basis_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("bases") / "huge.json")
    save_basis(HUGE_BASIS, path, phase="trivial")
    return path


class TestAstronomicalShapes:
    @pytest.mark.parametrize("document", [False, True])
    def test_basis_estimate_raises_memory_error(self, document):
        counts = r"\(support 1\.351e\+179, dimension 4\.489e\+176\) would take about .* GiB"
        with pytest.raises(MemoryError, match=r"n=600, d=2\) " + counts):
            check_memory(SystemShape(600, 2), document=document)

    def test_build_raises_memory_error(self):
        with pytest.raises(MemoryError, match="would take about .* GiB, more than the"):
            build_singlet_basis(SystemShape(600, 2))

    @pytest.mark.parametrize("measure", [verify_invariance, extract_phase_function])
    def test_dense_image_raises_memory_error(self, measure):
        with pytest.raises(MemoryError, match="n=1100 sites with d=2 levels .* GiB"):
            measure(HUGE_STATE)

    def test_subspace_exits_2(self, capsys):
        assert main(["subspace", "--n", "600", "--d", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the basis and its JSON document at shape")
        assert "(support 1.351e+179, dimension 4.489e+176)" in captured.err
        assert len(captured.err) < 250
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command,lines",
        [
            ("check-invariance", ["residual: 23.4520787991", "invariant: no"]),
            (
                "verify-lemmas",
                [
                    "member 0: phase measurement failed: state is not collectively "
                    "invariant (residual 2.345e+01)",
                    "all lemma checks: FAIL",
                ],
            ),
        ],
        ids=["check-invariance", "verify-lemmas"],
    )
    def test_exact_measure_exits_1(self, command, lines, huge_state_file, capsys):
        # sqrt(550): each stored row's 550 ones are raised to their own images.
        flag = "--state" if command == "check-invariance" else "--basis"
        assert main([command, flag, huge_state_file]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert set(lines) <= set(captured.out.splitlines())

    def test_verify_names_the_first_non_invariant_member(self):
        # sqrt(550): each of a member's 550 ones is raised to its own image.
        with pytest.raises(CertificateViolationError) as caught:
            verify_certificate_numerically(HUGE_BASIS, trials=2, seed=0)
        message = "basis member 0 is not collectively invariant (residual 2.345e+01)"
        assert str(caught.value) == message

    def test_verify_exits_1(self, huge_basis_file, capsys):
        assert main(["verify", "--basis", huge_basis_file, "--trials", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "certificate violation: basis member 0 is not collectively invariant"
        )
        assert captured.out == ""


class TestSupportEnumeration:
    def test_one_level_deeper_than_the_recursion_limit(self):
        assert enumerate_support(SystemShape(1100, 1), SupportProfile((1100,))) == [(0,) * 1100]

    @pytest.mark.parametrize("counts", [(2, 2), (3, 1), (0, 4), (2, 0, 3), (1, 2, 1), (2, 2, 2)])
    def test_lexicographic_words_of_the_profile(self, counts):
        word = [label for label, count in enumerate(counts) for _ in range(count)]
        expected = sorted(set(itertools.permutations(word)))
        assert enumerate_support(SystemShape(len(word), len(counts)), SupportProfile(counts)) == expected

    def test_subspace_answers_a_1100_site_one_level_shape(self, capsys):
        assert main(["subspace", "--n", "1100", "--d", "1"]) == 0
        assert "dimension: 1" in capsys.readouterr().out.splitlines()
