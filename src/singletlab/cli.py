"""Command-line interface.

Exit codes follow one convention across all subcommands: 0 when the
command succeeds and any checked predicate holds, 1 when a predicate
fails (a state is not invariant, not k-uniform, a lemma check fails, a
certificate is violated), and 2 for usage, parse, or I/O errors and for
a shape whose basis cannot be built (rank check failed, out of memory).

Every JSON artifact records the tolerance and seed that produced it.

Invariance and the permutation phase follow one exact rule in every
command, read on the support with the collective raising operators
(:func:`~singletlab.singlet.phase_stamp`); only ``verify``'s trials and
``optimize``'s restarts draw random numbers.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import _json
from .nogo import (
    CertificateViolationError,
    certificate_to_dict,
    certify,
    check_to_dict,
    verify_certificate_numerically,
)
from .optimize import minimize_deficit, result_to_dict
from .singlet import (
    PhaseFunctionError,
    SubspaceRankError,
    adjacent_transpositions,
    basis_from_dict,
    check_sign_relation,
    expected_dimension,
    invariance_limit,
    invariance_residual,
    load_basis,
    build_singlet_basis,
    check_memory,
    measure_phase,
    phase_stamp,
    save_basis,
)
from .states import DEFAULT_TOL, SupportProfile, SystemShape, load_state, state_from_dict
from .uniformity import is_k_uniform, report_to_dict

__all__ = ["main"]


def _write(document: dict, path: str | None) -> None:
    if path is not None:
        _json.dump(document, path)


def cmd_subspace(args: argparse.Namespace) -> int:
    shape = SystemShape(args.n, args.d)
    # The estimate counts the artifact as the per-amplitude dicts of
    # basis_to_dict, more than save_basis holds (one member's piece table
    # and distinct float texts at a time); see check_memory.
    check_memory(shape, document=True)
    basis = build_singlet_basis(shape, args.tol)
    print(f"n: {shape.n}")
    print(f"d: {shape.d}")
    print(f"dimension: {basis.dimension}")
    print(f"expected dimension: {expected_dimension(shape)}")
    if shape.divisible:
        print(f"K: {shape.copies}")
        print(f"support size: {SupportProfile.uniform(shape).size()}")
    phase = measure_phase(basis, seed=args.seed)
    if basis.dimension:
        print(f"permutation_phase: {phase}")
    if args.out is not None:
        save_basis(basis, args.out, seed=args.seed, phase=phase)
    return 0


def cmd_check_invariance(args: argparse.Namespace) -> int:
    state = load_state(args.state)
    residual = invariance_residual(state, args.tol)
    limit = invariance_limit(args.tol)
    passed = residual is not None and residual <= limit
    print(f"balanced support: {'yes' if residual is not None else 'no'}")
    if residual is not None:
        print(f"residual: {residual:.12g}")
    print(f"invariant: {'yes' if passed else 'no'}")
    document = {"seed": args.seed, "tolerance": args.tol, "limit": limit, "residual": residual}
    document["invariant"] = passed
    _write(document, args.out)
    return 0 if passed else 1


def cmd_uniformity(args: argparse.Namespace) -> int:
    state = load_state(args.state)
    report = is_k_uniform(state, args.k, args.tol)
    print(f"k: {report.k}")
    print(f"deficit: {report.deficit:.12g}")
    print(f"worst subsystem: {list(report.worst_subsystem)}")
    print(f"k-uniform: {'yes' if report.is_uniform else 'no'}")
    document = report_to_dict(report, state)
    document["seed"] = args.seed
    _write(document, args.out)
    return 0 if report.is_uniform else 1


def _load_members(path: str):
    """Accept either a basis document or a single state document."""
    document = _json.load(path)
    if "states" in document:
        return list(basis_from_dict(document).states)
    return [state_from_dict(document)]


def cmd_verify_lemmas(args: argparse.Namespace) -> int:
    members = _load_members(args.basis)
    all_passed = True
    results = []
    for position, member in enumerate(members):
        d = member.shape.d
        constant_counts = member.common_profile() is not None
        balanced = member.has_uniform_support()
        try:
            report = phase_stamp(member, args.tol)
            phase, det_power, residual = report.permutation_phase, report.det_power, report.residual
        except PhaseFunctionError as exc:
            phase = det_power = residual = None
            print(f"member {position}: phase measurement failed: {exc}")
        dichotomy = phase is not None
        # A label permutation is a product of at most d(d-1)/2 adjacent
        # transpositions.  check_sign_relation bounds a transposition's largest
        # entry of |tau psi - f(tau) psi| (tau is its own inverse, so the rows it
        # compares cover both supports), relabeling keeps largest entries, and by
        # the triangle inequality tol / (d(d-1)/2) per generator holds all d! within tol.
        generator_tol = args.tol / max(1, d * (d - 1) // 2)
        sign_relation = dichotomy and all(
            check_sign_relation(member, swap, phase, generator_tol)
            for swap in adjacent_transpositions(d)
        )
        all_passed = all_passed and constant_counts and balanced and dichotomy and sign_relation
        print(
            f"member {position}: dichotomy={'pass' if dichotomy else 'FAIL'}"
            + (f" ({phase}, det power {det_power})" if dichotomy else "")
            + f", sign-relation={'pass' if sign_relation else 'FAIL'}"
            + f", constant-counts={'pass' if constant_counts else 'FAIL'}"
            + f", balanced-support={'pass' if balanced else 'FAIL'}"
        )
        results.append(dict(
            member=position, dichotomy=dichotomy, permutation_phase=phase, det_power=det_power,
            phase_residual=residual, sign_relation=sign_relation,
            constant_counts=constant_counts, balanced_support=balanced,
        ))
    print(f"all lemma checks: {'pass' if all_passed else 'FAIL'}")
    document = {"seed": args.seed, "tolerance": args.tol, "members": results}
    document["passed"] = all_passed
    _write(document, args.out)
    return 0 if all_passed else 1


def cmd_certify(args: argparse.Namespace) -> int:
    certificate = certify(SystemShape(args.n, args.d))
    print(f"n: {certificate.n}")
    print(f"d: {certificate.d}")
    print(f"required diagonal mass: {certificate.required}")
    if certificate.divisible:
        print(f"actual diagonal mass: {certificate.actual}")
        print(f"gap: {certificate.gap}")
        print(f"deficit floor: {certificate.deficit_floor}")
    print(f"two-uniform possible: {'yes' if certificate.two_uniform_possible else 'no'}")
    print(f"AME possible: {'yes' if certificate.ame_possible else 'no'}")
    print(f"verdict: {certificate.verdict}")
    document = certificate_to_dict(certificate)
    document["seed"] = args.seed
    document["tolerance"] = args.tol
    _write(document, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    basis = load_basis(args.basis)
    # A CertificateViolationError reaches main, which reports it with exit 1.
    check = verify_certificate_numerically(basis, trials=args.trials, seed=args.seed, tol=args.tol)
    print(f"trials: {check.trials}")
    print(f"max identity residual: {check.max_identity_residual:.12g}")
    print(f"min pair deficit: {check.min_pair_deficit:.12g}")
    print(f"deficit floor: {check.deficit_floor:.12g}")
    print("certificate holds")
    document = check_to_dict(check)
    document["tolerance"] = args.tol
    _write(document, args.out)
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    basis = load_basis(args.basis)
    result = minimize_deficit(
        basis,
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
    )
    print(f"dimension: {basis.dimension}")
    print(f"restarts: {result.restarts}")
    print(f"iterations: {result.iterations}")
    print(f"converged: {'yes' if result.converged else 'no'}")
    print(f"best deficit: {result.deficit:.12g}")
    print(f"certificate floor: {result.floor:.12g}")
    _write(result_to_dict(result, basis), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singletlab",
        description=(
            "Build collectively invariant subspaces, measure marginal "
            "uniformity, and check the counting certificate."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOL,
        help=f"numerical tolerance (default {DEFAULT_TOL:g}); for subspace, the "
        "smallest accepted Gram-Schmidt pivot relative to its row norm",
    )
    common.add_argument("--seed", type=int, default=0, help="random seed, >= 0 (default 0)")
    common.add_argument("--out", default=None, help="write a JSON artifact to this path")

    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--n", type=int, required=True, help="number of particles")
    shape.add_argument("--d", type=int, required=True, help="levels per particle")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, text, *parents):
        p = sub.add_parser(name, parents=[common, *parents], help=text)
        p.set_defaults(handler=handler)
        return p

    command("subspace", cmd_subspace, "build the invariant subspace for a shape", shape)
    p = command(
        "check-invariance",
        cmd_check_invariance,
        "exact collective invariance of a state file: balanced support, then the "
        "collective raising residual against max(tol, 1e-12) * 100",
    )
    p.add_argument("--state", required=True, help="state JSON file")
    p = command("uniformity", cmd_uniformity, "k-uniformity report for a state file")
    p.add_argument("--state", required=True, help="state JSON file")
    p.add_argument("--k", type=int, required=True, help="subsystem size")
    p = command(
        "verify-lemmas",
        cmd_verify_lemmas,
        "exact phase dichotomy, sign relation on the d - 1 adjacent label "
        "transpositions, and support checks for a basis or state file",
    )
    p.add_argument("--basis", required=True, help="basis or state JSON file")
    command("certify", cmd_certify, "exact counting certificate for a shape", shape)
    p = command("verify", cmd_verify, "replay the certificate on random states from a basis file")
    p.add_argument("--basis", required=True, help="basis JSON file")
    p.add_argument("--trials", type=int, default=100, help="random states (default 100)")
    p = command("optimize", cmd_optimize, "minimize the pair deficit over a basis file")
    p.add_argument("--basis", required=True, help="basis JSON file")
    p.add_argument("--restarts", type=int, default=16, help="random restarts (default 16)")
    p.add_argument(
        "--max-iters", type=int, default=10000, help="iteration cap per restart (default 10000)"
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        parser.error(f"--tol must be finite and >= 0, got {args.tol}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    try:
        return args.handler(args)
    except CertificateViolationError as exc:
        print(f"certificate violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, SubspaceRankError, MemoryError) as exc:
        # A failed allocation can raise a MemoryError with no text.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
