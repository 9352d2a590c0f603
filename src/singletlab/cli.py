"""Command-line interface.

Exit codes follow one convention across all subcommands: 0 when the
command succeeds and any checked predicate holds, 1 when a predicate
fails (a state is not invariant, not k-uniform, a lemma check fails, a
certificate is violated), and 2 for usage, parse, or I/O errors and for
a shape whose basis cannot be built (rank check failed, out of memory).

Every JSON artifact records the tolerance and seed that produced it.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import permutations

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
    basis_from_dict,
    check_sign_relation,
    expected_dimension,
    extract_phase_function,
    load_basis,
    build_singlet_basis,
    check_memory,
    measure_phase,
    save_basis,
    verify_invariance,
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
    # basis_to_dict, more than save_basis holds; see check_memory.
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
    residual = verify_invariance(state, samples=args.samples, seed=args.seed)
    passed = residual <= args.tol
    print(f"samples: {args.samples}")
    print(f"residual: {residual:.12g}")
    print(f"invariant: {'yes' if passed else 'no'}")
    _write(
        {
            "samples": args.samples,
            "seed": args.seed,
            "tolerance": args.tol,
            "residual": residual,
            "invariant": passed,
        },
        args.out,
    )
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
        profile = member.common_profile()
        constant_counts = profile is not None
        balanced = member.has_uniform_support()
        try:
            report = extract_phase_function(
                member, samples=args.samples, seed=args.seed, tol=args.tol
            )
            dichotomy = True
            phase = report.permutation_phase
            det_power = report.det_power
            residual = report.residual
        except PhaseFunctionError as exc:
            dichotomy = False
            phase = None
            det_power = None
            residual = None
            print(f"member {position}: phase measurement failed: {exc}")
        sign_relation = dichotomy and all(
            check_sign_relation(member, perm, phase, args.tol)
            for perm in permutations(range(d))
        )
        member_ok = constant_counts and balanced and dichotomy and sign_relation
        all_passed = all_passed and member_ok
        print(
            f"member {position}: dichotomy={'pass' if dichotomy else 'FAIL'}"
            + (f" ({phase}, det power {det_power})" if dichotomy else "")
            + f", sign-relation={'pass' if sign_relation else 'FAIL'}"
            + f", constant-counts={'pass' if constant_counts else 'FAIL'}"
            + f", balanced-support={'pass' if balanced else 'FAIL'}"
        )
        results.append(
            {
                "member": position,
                "dichotomy": dichotomy,
                "permutation_phase": phase,
                "det_power": det_power,
                "phase_residual": residual,
                "sign_relation": sign_relation,
                "constant_counts": constant_counts,
                "balanced_support": balanced,
            }
        )
    print(f"all lemma checks: {'pass' if all_passed else 'FAIL'}")
    _write(
        {
            "seed": args.seed,
            "samples": args.samples,
            "tolerance": args.tol,
            "members": results,
            "passed": all_passed,
        },
        args.out,
    )
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
    common.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    common.add_argument("--out", default=None, help="write a JSON artifact to this path")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "subspace", parents=[common], help="build the invariant subspace for a shape"
    )
    p.add_argument("--n", type=int, required=True, help="number of particles")
    p.add_argument("--d", type=int, required=True, help="levels per particle")
    p.set_defaults(handler=cmd_subspace)

    p = sub.add_parser(
        "check-invariance",
        parents=[common],
        help="residual of collective phase covariance for a state file",
    )
    p.add_argument("--state", required=True, help="state JSON file")
    p.add_argument("--samples", type=int, default=20, help="Haar samples (default 20)")
    p.set_defaults(handler=cmd_check_invariance)

    p = sub.add_parser(
        "uniformity", parents=[common], help="k-uniformity report for a state file"
    )
    p.add_argument("--state", required=True, help="state JSON file")
    p.add_argument("--k", type=int, required=True, help="subsystem size")
    p.set_defaults(handler=cmd_uniformity)

    p = sub.add_parser(
        "verify-lemmas",
        parents=[common],
        help="phase dichotomy, sign relation, and support checks for a basis or state file",
    )
    p.add_argument("--basis", required=True, help="basis or state JSON file")
    p.add_argument("--samples", type=int, default=8, help="Haar samples (default 8)")
    p.set_defaults(handler=cmd_verify_lemmas)

    p = sub.add_parser(
        "certify", parents=[common], help="exact counting certificate for a shape"
    )
    p.add_argument("--n", type=int, required=True, help="number of particles")
    p.add_argument("--d", type=int, required=True, help="levels per particle")
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="replay the certificate on random states from a basis file",
    )
    p.add_argument("--basis", required=True, help="basis JSON file")
    p.add_argument("--trials", type=int, default=100, help="random states (default 100)")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser(
        "optimize",
        parents=[common],
        help="minimize the pair deficit over a basis file",
    )
    p.add_argument("--basis", required=True, help="basis JSON file")
    p.add_argument("--restarts", type=int, default=16, help="random restarts (default 16)")
    p.add_argument(
        "--max-iters",
        dest="max_iters",
        type=int,
        default=10000,
        help="iteration cap per restart (default 10000)",
    )
    p.set_defaults(handler=cmd_optimize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        parser.error(f"--tol must be finite and >= 0, got {args.tol}")
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
