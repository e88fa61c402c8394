"""Command-line interface.

Commands: ``generate``, ``verify``, ``origami``, ``degenerate``, ``selftest``.
All machine output goes to stdout; diagnostics go to stderr.  Exit status:
0 = all checks passed, 1 = a mathematical check failed, 2 = usage or parse
error, or a cover document the checks cannot be applied to.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, degeneration, family, origami
from .curves import (
    cover_from_json,
    cover_to_dict,
    pullback_invariant_differential,
    ramification_report,
    verify_cover_identity,
)
from .errors import OrigamiCoversError, UnsupportedShape
from .parsing import format_poly, format_ratfunc
from .poly import Poly
from .selftest import run_selftest

DEFAULT_MAX_GENUS = 64


def _check(name: str, passed: bool, witness: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "witness": witness}


def _emit(doc: dict):
    print(json.dumps(doc, indent=2))


def _exit_status(checks) -> int:
    return 0 if all(c["passed"] for c in checks) else 1


def _genus_guard(parser, genus: int, max_genus: int, minimum: int = 1):
    if genus < minimum:
        parser.error(f"genus must be >= {minimum}")
    if genus > max_genus:
        parser.error(
            f"genus {genus} exceeds the safety limit {max_genus};"
            " raise it with --max-genus"
        )


def _family_document(g: int) -> tuple[dict, list]:
    inst = family.build_family(g)
    identity = verify_cover_identity(inst.cover)
    pullback = pullback_invariant_differential(inst.cover)
    report = ramification_report(inst.cover)
    companions = family.companion_identities(g)
    expected_pullback = (2 * g - 1) * Poly.variable() ** (g - 1)
    checks = [
        _check("cover_identity", identity.ok, "formal identity over Q(t)"),
        _check(
            "pullback_formula",
            pullback == expected_pullback,
            format_ratfunc(pullback),
        ),
        _check(
            "ramification",
            report.ramification_index == 2 * g - 1
            and report.vanishing_order_at_origin == 2 * (g - 1),
            f"index {report.ramification_index}, vanishing order"
            f" {report.vanishing_order_at_origin}",
        ),
        _check("riemann_hurwitz", report.riemann_hurwitz_balanced,
               f"2g-2 = {2 * g - 2}"),
        _check("companion_identities", companions.ok, ""),
    ]
    doc = {
        "command": "generate",
        "version": __version__,
        "inputs": {"genus": g},
        "cover": cover_to_dict(inst.cover),
        "certificate": {
            "identity_ok": identity.ok,
            "pullback": format_ratfunc(pullback),
            "ramification_index": report.ramification_index,
            "rh_balanced": report.riemann_hurwitz_balanced,
        },
        "checks": checks,
    }
    return doc, checks


def cmd_generate(args, parser) -> int:
    _genus_guard(parser, args.genus, args.max_genus)
    doc, checks = _family_document(args.genus)
    if args.format == "json":
        _emit(doc)
    else:
        cover = doc["cover"]
        cert = doc["certificate"]
        print(f"C_t: y^2 = {cover['source_rhs']}")
        print(f"E_t: y^2 = {cover['target_rhs']}")
        print(f"f1 = {cover['f1']}")
        print(f"f2 = {cover['f2']}")
        print(f"degree = {cover['degree']}")
        print(f"identity_ok = {cert['identity_ok']}")
        print(f"pullback = {cert['pullback']}")
        print(f"ramification_index = {cert['ramification_index']}")
        print(f"rh_balanced = {cert['rh_balanced']}")
    return _exit_status(checks)


def _verify_checks(cover) -> list:
    identity = verify_cover_identity(cover)
    f1 = cover.map.f1
    map_degree = max(f1.num.degree(), f1.den.degree())
    checks = [
        _check("cover_identity", identity.ok, identity.witness),
        _check("degree", cover.degree == map_degree,
               f"declared {cover.degree}, f1 has degree {map_degree}"),
    ]
    if identity.ok:
        try:
            report = ramification_report(cover)
            checks.append(_check(
                "riemann_hurwitz", report.riemann_hurwitz_balanced,
                f"index {report.ramification_index}",
            ))
        except UnsupportedShape as exc:
            # No certificate of a unique totally ramified point: not passed.
            checks.append(_check("ramification_shape", False, str(exc)))
    return checks


def cmd_verify(args, parser) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    try:
        checks = _verify_checks(cover_from_json(text))
    except (OrigamiCoversError, ValueError) as exc:
        # Parse errors and covers the checks cannot be applied to (a zero
        # curve, a zero map component, a target of degree < 3).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit({
        "command": "verify",
        "version": __version__,
        "inputs": {"file": args.file},
        "checks": checks,
    })
    return _exit_status(checks)


def cmd_origami(args, parser) -> int:
    _genus_guard(parser, args.genus, args.max_genus)
    g = args.genus
    diagram = origami.staircase(g)
    mono = origami.commutator(diagram)
    cycle_type = origami.monodromy_cycle_type(diagram)
    vertices = origami.vertex_count(diagram)
    computed_genus = origami.genus(diagram)
    checks = [
        _check("connected", origami.is_connected(diagram), ""),
        _check("single_vertex", vertices == 1, f"vertices = {vertices}"),
        _check("full_cycle_monodromy",
               cycle_type == (diagram.n,), mono.cycle_string()),
        _check("genus", computed_genus == g, f"genus = {computed_genus}"),
    ]
    _emit({
        "command": "origami",
        "version": __version__,
        "inputs": {"genus": g},
        "diagram": origami.format_diagram(diagram),
        "monodromy": mono.cycle_string(),
        "cycle_type": list(cycle_type),
        "vertex_count": vertices,
        "genus": computed_genus,
        "checks": checks,
    })
    return _exit_status(checks)


def cmd_degenerate(args, parser) -> int:
    _genus_guard(parser, args.genus, args.max_genus, minimum=2)
    g = args.genus
    try:
        report = degeneration.deformation_report(g)
    except OrigamiCoversError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    agrees = report.exact and report.instance == family.build_family(g)
    checks = [
        _check("order_t_system_consistent", True,
               f"{report.rows}x{report.cols}, nullity {report.nullity}"),
        _check("exact_certificate", report.exact, ""),
        _check("agrees_with_family", agrees, ""),
    ]
    _emit({
        "command": "degenerate",
        "version": __version__,
        "inputs": {"genus": g},
        "ansatz": {
            "curve_unknowns": list(report.ansatz.curve_unknowns),
            "denominator_unknowns": list(report.ansatz.den_unknowns),
            "numerator_unknowns": list(report.ansatz.num_unknowns),
        },
        "matrix": {"rows": report.rows, "cols": report.cols},
        "coefficients": {
            name: str(value) for name, value in report.solution.items()
        },
        "nullity": report.nullity,
        "exact": report.exact,
        "curve": format_poly(report.instance.cover.source.rhs)
        if report.exact else None,
        "checks": checks,
    })
    return _exit_status(checks)


def cmd_selftest(args, parser) -> int:
    results = run_selftest(max_genus=args.max_genus)
    ok = True
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}")
        ok = ok and result.ok
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="origami-covers",
        description="Construct and certify totally ramified covers of "
                    "Legendre elliptic curves.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_genus_command(name, help_text, func):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--genus", type=int, required=True)
        p.add_argument("--max-genus", type=int, default=DEFAULT_MAX_GENUS,
                       help="safety limit on the genus (default 64)")
        p.set_defaults(func=func)
        return p

    p_gen = add_genus_command(
        "generate", "build and certify the genus-g family cover", cmd_generate
    )
    p_gen.add_argument("--format", choices=("json", "text"), default="json")

    p_verify = sub.add_parser("verify", help="verify a cover JSON document")
    p_verify.add_argument("file")
    p_verify.set_defaults(func=cmd_verify)

    add_genus_command(
        "origami", "emit the genus-g staircase diagram and its invariants",
        cmd_origami,
    )
    add_genus_command(
        "degenerate", "run the degeneration/deformation pipeline",
        cmd_degenerate,
    )

    p_self = sub.add_parser("selftest", help="run the full verification suite")
    p_self.add_argument("--max-genus", type=int, default=12)
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
