"""Command-line surface.

Subcommands: check (decide a mode and emit a certificate), verify (recheck a
certificate against a spec file), invariants (structural report), replicate
(run the replication suite), hunt (counterexample search), emit (write a
constructor's algebra to a spec file).

Exit codes are a stable contract: 0 = yes/pass, 1 = no/fail, 2 =
unknown/skipped/budget, 3 = usage or parse error.  Output is canonical JSON on
stdout unless --pretty is given; diagnostics go to stderr.  No environment
variables are consulted.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DimensionTooLarge, GrasymError, ParseError, SearchSpaceTooLarge
from .invariants import (
    center,
    commutator_subspace,
    graded_commutator_space,
    is_graded_division,
    support,
)
from .replicate import (
    CRITERIA,
    default_hunt_params,
    hunt_counterexample,
    run_replication_suite,
)
from .specfile import (
    algebra_from_dict,
    algebra_hash,
    algebra_to_dict,
    canonical_json,
    certificate_to_dict,
    functional_from_certificate,
    load_certificate_file,
    load_json,
    parse_algebra_file,
    write_algebra_file,
    write_certificate_file,
)
from .symmetry import MODES, decide_form_existence, verify_certificate

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


def _emit(data: dict, pretty: bool):
    if pretty:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(canonical_json(data))


def _decide(a, mode):
    """decide_form_existence, or None (after an `undecided:` line on stderr)
    when the question exceeds the engine's dimension or search budget."""
    try:
        return decide_form_existence(a, mode)
    except (DimensionTooLarge, SearchSpaceTooLarge) as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return None


def _cmd_check(args) -> int:
    a = parse_algebra_file(args.spec)
    verdict = _decide(a, args.mode)
    if verdict is None:
        return EXIT_UNKNOWN
    cert = certificate_to_dict(a, verdict)
    if args.cert:
        write_certificate_file(a, verdict, args.cert)
    _emit(cert, args.pretty)
    return EXIT_YES if verdict.is_yes else EXIT_NO


def _cmd_verify(args) -> int:
    a = parse_algebra_file(args.spec)
    cert = load_certificate_file(args.cert)
    if cert["algebra_sha256"] != algebra_hash(a):
        print("hash mismatch: certificate is for a different algebra", file=sys.stderr)
        return EXIT_NO
    mode = cert["mode"]
    if cert["status"] == "yes":
        lam = functional_from_certificate(a, cert)
        report = verify_certificate(a, lam, mode)
        _emit({"verified": report.ok,
               "checks": [{"name": n, "ok": ok, "detail": d}
                          for n, ok, d in report.checks]}, args.pretty)
        return EXIT_YES if report.ok else EXIT_NO
    verdict = _decide(a, mode)
    if verdict is None:
        return EXIT_UNKNOWN
    match = (verdict.status == cert["status"]
             and verdict.refutation == cert["refutation"])
    _emit({"verified": match, "recomputed_status": verdict.status,
           "recomputed_refutation": verdict.refutation}, args.pretty)
    return EXIT_YES if match else EXIT_NO


def _cmd_invariants(args) -> int:
    a = parse_algebra_file(args.spec)
    verdict = is_graded_division(a)
    data = {
        "dim": a.dim,
        "center_dim": center(a).dim,
        "commutator_dim": commutator_subspace(a).dim,
        "graded_commutator_dim": graded_commutator_space(a).dim,
        "support": list(support(a)),
        "division": {
            "status": verdict.status,
            "certificate": verdict.certificate,
            "witness": None if verdict.witness is None
            else [c.to_json() for c in verdict.witness.coords],
        },
    }
    _emit(data, args.pretty)
    return EXIT_UNKNOWN if verdict.status == "unknown" else EXIT_YES


def _cmd_replicate(args) -> int:
    names = None
    if args.name:
        known = {name for name, _ in CRITERIA}
        for n in args.name:
            if n not in known:
                print(f"unknown criterion {n!r}; known: {sorted(known)}",
                      file=sys.stderr)
                return EXIT_USAGE
        names = set(args.name)
    report = run_replication_suite(names)
    if args.pretty:
        for r in report.results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name}  ({r.seconds:.2f}s)  {r.details}")
        print(f"{'all passed' if report.passed else 'FAILURES present'}")
    else:
        _emit(report.to_dict(), False)
    return EXIT_YES if report.passed else EXIT_NO


def _cmd_hunt(args) -> int:
    params = default_hunt_params(args.char, args.max_group, args.max_ext)
    report = hunt_counterexample(params, checkpoint_path=args.checkpoint,
                                 resume=args.resume)
    data = report.to_dict()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(data) + "\n")
    _emit(data, args.pretty)
    return EXIT_YES


def _cmd_emit(args) -> int:
    spec: dict = {}
    if args.field:
        spec["field"] = load_json("--field", args.field)
    if args.group:
        spec["group"] = load_json("--group", args.group)
    block = {"name": args.constructor}
    if args.params:
        params = load_json("--params", args.params)
        if not isinstance(params, dict):
            raise ParseError("--params must be a JSON object")
        block.update(params)
    spec["constructor"] = block
    a = algebra_from_dict(spec)
    if args.output:
        write_algebra_file(a, args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        _emit(algebra_to_dict(a), args.pretty)
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grasym",
        description="exact graded-algebra toolkit: constructions, invariants, "
                    "and graded symmetry decisions with certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide a mode for a spec file")
    p.add_argument("spec")
    p.add_argument("--mode", choices=MODES, default="graded-symmetric")
    p.add_argument("--cert", help="write the certificate to this path")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("verify", help="recheck a certificate against a spec file")
    p.add_argument("spec")
    p.add_argument("cert")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("invariants", help="center, commutators, support, division")
    p.add_argument("spec")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("replicate", help="run the replication suite")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true", help="run every criterion (default)")
    which.add_argument("--name", action="append", help="run only this criterion")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=_cmd_replicate)

    p = sub.add_parser("hunt", help="search small crossed products for counterexamples")
    p.add_argument("--char", type=int, required=True)
    p.add_argument("--max-group", type=int, default=8)
    p.add_argument("--max-ext", type=int, default=3)
    p.add_argument("--resume", help="resume from a checkpoint file")
    p.add_argument("--checkpoint", help="write checkpoints to this path")
    p.add_argument("--report", help="write the report to this path")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=_cmd_hunt)

    p = sub.add_parser("emit", help="build a named constructor and write its spec file")
    p.add_argument("--constructor", required=True)
    p.add_argument("--params", help="JSON object of constructor parameters")
    p.add_argument("--field", help="JSON field block")
    p.add_argument("--group", help="JSON group block")
    p.add_argument("-o", "--output")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=_cmd_emit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_YES if exc.code == 0 else EXIT_USAGE
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GrasymError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
