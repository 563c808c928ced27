"""Command-line front end.

Subcommands: color, det, certify, cut, build, closure, krebes, report.
Exit codes: 0 when the requested object was found or produced, 1 when a
search legitimately comes up empty, 2 on bad input or an exceeded limit
(the message names it), 3 on an internal error, reported on one line as
"internal error: <type>: <message>" without a traceback, and 141
(128 + SIGPIPE), silently, when the reader closes standard output.  --json
switches to machine output; every JSON document carries "schema": 1,
and a fixed seed makes reruns byte-identical.
`python -m tanglecert` runs the same CLI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from pathlib import Path

from .colorings import (
    ColoringError,
    fox_solution_space,
    link_determinant,
    parse_quandle,
    quandle_space,
)
from .diagram import Diagram, DiagramError, components, parse_diagram, serialize
from .linalg import DeterminantBoundExceeded
from .persistence import (
    CertificateError,
    build_T_plus_Tstar,
    cut_arc_twice,
    cut_two_arcs,
    find_certificate_report,
    irreducibility_report,
    krebes_gcd,
    verify_certificate,
)
from .tangle import (
    denominator_closure,
    numerator_closure,
    rational_tangle,
    tangle_fraction,
)

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it


def _load(path: str) -> Diagram:
    return parse_diagram(Path(path).read_text())


def _count(text: str) -> int:
    """argparse type for counts; anything else is a usage error (exit 2) naming the option."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _moduli(text: str) -> list[int]:
    """argparse type for comma-separated moduli; anything else is a usage error (exit 2)."""
    try:
        return [int(m) for m in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _twists(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise DiagramError(f"bad twist vector {text!r}")


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _write_certified(out: str, t: Diagram, cert) -> dict:
    """Write OUT.pd and OUT.cert.json; the certificate's JSON payload."""
    Path(out + ".pd").write_text(serialize(t))
    payload = cert.to_json(out + ".pd")
    Path(out + ".cert.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
    return payload


def cmd_color(args) -> int:
    d = _load(args.diagram)
    if args.quandle:
        q = parse_quandle(Path(args.quandle).read_text(), name=Path(args.quandle).stem)
        key, kind, by = "quandle", q.name, f" by {q.name}"
        space = quandle_space(d, q)
    else:
        key, kind, by = "modulus", args.mod, ""
        space = fox_solution_space(d, args.mod)
    nontrivial = space.first_nonconstant() is not None
    payload = {"schema": 1, key: kind, "count": space.count, "nontrivial": nontrivial}
    lines = [f"{space.count} colorings{by}, nontrivial: {'yes' if nontrivial else 'no'}"]
    if args.enumerate:
        colorings = list(islice(space.colorings(), args.enumerate))
        complete = len(colorings) == space.count
        payload["complete"] = complete
        payload["colorings"] = [
            {
                key: kind,
                "colors": {str(a): v for a, v in sorted(c.colors.items())},
                "nontrivial": c.nontrivial,
            }
            for c in colorings
        ]
        lines += [str(sorted(c.colors.items())) for c in colorings]
        if not complete:
            lines.append(f"first {len(colorings)} of {space.count} colorings listed (truncated)")
    _emit(payload, args.json, lines)
    return EXIT_OK


def cmd_det(args) -> int:
    d = _load(args.diagram)
    n = len(components(d))
    value = link_determinant(d)
    _emit(
        {"schema": 1, "determinant": value, "components": n},
        args.json,
        [f"determinant: {value} ({n} component{'s' if n != 1 else ''})"],
    )
    return EXIT_OK


def cmd_certify(args) -> int:
    t = _load(args.tangle)
    quandles = tuple(
        parse_quandle(Path(p).read_text(), name=Path(p).stem)
        for p in (args.quandles.split(",") if args.quandles else [])
    )
    report = find_certificate_report(t, args.mods, quandles)
    if report.certificate is None:
        reasons = []
        if report.cannot_exist:
            reasons.append("krebes gcd = 1: no coloring certificate can exist")
        for entry in report.entries:
            if entry.get("clash"):
                a, b = entry["clash"]
                reasons.append(
                    f"mod {entry['fox']}: propagation forces arcs {a} = {b}; only trivial colorings"
                )
        payload = report.to_json()
        payload["reasons"] = reasons
        _emit(payload, args.json, ["none"] + reasons)
        return EXIT_NOT_FOUND
    cert = report.certificate
    payload = cert.to_json(args.tangle)
    lines = [
        f"certificate: {'fox mod ' + str(cert.kind[1]) if cert.kind[0] == 'fox' else cert.kind[1].name}",
        f"boundary color: {cert.boundary_color}, witness: {cert.witness}",
    ]
    if args.verify:
        vrep = verify_certificate(t, cert, trials=args.verify, seed=args.seed)
        payload["verification"] = vrep.to_json()
        lines.append(f"verification: {vrep.passes} closures pass, {vrep.skipped} skipped")
    _emit(payload, args.json, lines)
    return EXIT_OK


def cmd_cut(args) -> int:
    d = _load(args.diagram)
    if args.arc2 is None:
        nontrivial = fox_solution_space(d, args.mod).first_nonconstant()
        if nontrivial is None:
            print(f"no nontrivial coloring mod {args.mod}", file=sys.stderr)
            return EXIT_NOT_FOUND
        t, cert = cut_arc_twice(d, nontrivial, args.arc)
    else:
        # adding a constant keeps a coloring valid, so pinning both arcs to 0 loses nothing
        pins = {args.arc: 0, args.arc2: 0}
        chosen = fox_solution_space(d, args.mod, pins).first_nonconstant()
        if chosen is None:
            # the unpinned solve only tells which of the two reasons holds
            msg = (
                f"no nontrivial coloring mod {args.mod}"
                if fox_solution_space(d, args.mod).first_nonconstant() is None
                else f"arcs {args.arc} and {args.arc2} never share a color mod {args.mod}"
            )
            print(msg, file=sys.stderr)
            return EXIT_NOT_FOUND
        t, cert, _ = cut_two_arcs(d, chosen, args.arc, args.arc2, extra_passes=args.passes)
    payload = _write_certified(args.out, t, cert)
    _emit(
        payload,
        args.json,
        [f"tangle written to {args.out}.pd", f"certificate written to {args.out}.cert.json"],
    )
    return EXIT_OK


def cmd_build(args) -> int:
    if args.t_plus_tstar:
        twists = _twists(args.t_plus_tstar)
        try:
            s, cert = build_T_plus_Tstar(twists)
        except CertificateError as exc:
            print(f"none: {exc}", file=sys.stderr)
            return EXIT_NOT_FOUND
        payload = _write_certified(args.out, s, cert)
        _emit(payload, args.json, [f"tangle written to {args.out}.pd", "certificate found"])
        return EXIT_OK
    twists = _twists(args.rational)
    t = rational_tangle(twists)
    if args.closure:
        d = numerator_closure(t) if args.closure == "N" else denominator_closure(t)
        Path(args.out + ".pd").write_text(serialize(d))
        _emit(
            {"schema": 1, "fraction": str(tangle_fraction(twists)), "file": args.out + ".pd"},
            args.json,
            [f"closure written to {args.out}.pd"],
        )
        return EXIT_OK
    Path(args.out + ".pd").write_text(serialize(t))
    _emit(
        {"schema": 1, "fraction": str(tangle_fraction(twists)), "file": args.out + ".pd"},
        args.json,
        [f"tangle written to {args.out}.pd (fraction {tangle_fraction(twists)})"],
    )
    return EXIT_OK


def cmd_closure(args) -> int:
    t = _load(args.tangle)
    d = numerator_closure(t) if args.type == "N" else denominator_closure(t)
    text = serialize(d)
    if args.out:
        Path(args.out).write_text(text)
    n = len(components(d))
    _emit(
        {"schema": 1, "components": n, "pd": text},
        args.json,
        [text.rstrip(), f"# components: {n}"],
    )
    return EXIT_OK


def cmd_krebes(args) -> int:
    t = _load(args.tangle)
    g = krebes_gcd(t)
    _emit({"schema": 1, "krebes_gcd": g}, args.json, [f"krebes gcd: {g}"])
    return EXIT_OK


def cmd_report(args) -> int:
    t = _load(args.tangle)
    twists = _twists(args.twists) if args.twists else None
    rep = irreducibility_report(t, twists)
    lines = [
        f"closure N: {rep.closure_n.components} component(s), determinant {rep.closure_n.determinant}, nontrivial moduli {rep.closure_n.nontrivial_moduli}",
        f"closure D: {rep.closure_d.components} component(s), determinant {rep.closure_d.determinant}, nontrivial moduli {rep.closure_d.nontrivial_moduli}",
        f"krebes gcd: {rep.krebes_gcd}",
        f"local knots: {rep.local_knots}",
        f"verdict: {rep.verdict}",
    ]
    _emit(rep.to_json(), args.json, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tanglecert",
        description="Certify tangles as persistent via boundary-monochromatic colorings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("color", help="count or enumerate colorings of a diagram")
    p.add_argument("diagram")
    p.add_argument("--mod", type=int, default=3)
    p.add_argument("--quandle", help="quandle table file")
    p.add_argument("--count", action="store_true", help="report the count (default)")
    p.add_argument("--enumerate", type=_count, metavar="K", help="list the first K colorings")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("det", help="determinant of a closed diagram")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("certify", help="search for a persistence certificate")
    p.add_argument("tangle")
    p.add_argument("--mods", type=_moduli, help="comma-separated Fox moduli")
    p.add_argument("--quandles", help="comma-separated quandle files")
    p.add_argument("--verify", type=_count, metavar="TRIALS", help="verify over random hosts")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("cut", help="cut a colored diagram into a certified tangle")
    p.add_argument("diagram")
    p.add_argument("--arc", type=int, required=True)
    p.add_argument("--arc2", type=int)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--passes", type=_count, default=0, help="extra transport passes")
    p.add_argument("--out", default="cut-output")
    p.set_defaults(func=cmd_cut)

    p = sub.add_parser("build", help="build rational tangles and sums")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rational", metavar="TWISTS")
    group.add_argument("--t-plus-tstar", metavar="TWISTS")
    p.add_argument("--closure", choices=["N", "D"])
    p.add_argument("--out", default="build-output")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("closure", help="numerator or denominator closure of a tangle")
    p.add_argument("tangle")
    p.add_argument("--type", choices=["N", "D"], default="N")
    p.add_argument("--out")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("krebes", help="gcd of the two closure determinants")
    p.add_argument("tangle")
    p.set_defaults(func=cmd_krebes)

    p = sub.add_parser("report", help="irreducibility evidence report")
    p.add_argument("tangle")
    p.add_argument("--twists", help="twist vector if built rationally")
    p.set_defaults(func=cmd_report)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone (`| head`): nothing is wrong with the input, and the
        # output still buffered goes to devnull so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (DiagramError, ColoringError, CertificateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except DeterminantBoundExceeded as exc:
        print(f"error: limit exceeded: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # the CLI boundary: a defect is reported, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
