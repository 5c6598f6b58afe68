"""Command-line front end.

Subcommands read their JSON documents through ``codec`` field tables,
dispatch to the library, and emit either human-readable text or canonical
JSON (sorted keys, fixed separators, so identical inputs give byte-identical
output). Exit codes: 0 yes / verified / positive, 1 no / failed, 2
inconclusive or error; every error, a rejected input included, leaves
through the one handler in ``run``. Each subcommand imports the layers it
calls when it runs, so a cold run loads no other.
"""

import argparse
import sys
import time

from . import codec

NAMED_LATTICES = ("U", "E8", "3U", "U+E8", "3U+2E8")  # the names lattices.named_lattice knows
PAIR = {"lattice": codec.lattice, "isometry": codec.rat_matrix}
TWIST = dict(PAIR, element=codec.poly)
TWIST_SPLIT = dict(TWIST, exponent=codec.positive_int, prime=codec.prime)
SEED = {"salem": codec.poly, "S": codec.lattice, "f_S": codec.int_matrix, "R_rest": codec.lattice}


def _read(path, table, name):
    return codec.fields(codec.load(path), table, name)


def _isometry(L, matrix, path):
    """Isometry(L, matrix), with an error that names the input field."""
    from .isometries import Isometry, IsometryError

    try:
        return Isometry(L, matrix)
    except IsometryError as exc:
        raise IsometryError(f"{path}: {exc}") from None


def _read_pair(path, table, name):
    """The document at ``path`` with its lattice and its isometry."""
    doc = _read(path, table, name)
    return doc, doc["lattice"], _isometry(doc["lattice"], doc["isometry"], f"{name}.isometry")


def _emit(payload, text_lines, fmt):
    if fmt == "json":
        print(codec.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def cmd_certify_salem(args):
    from .polynomials import NotSalemError, is_salem

    poly = codec.poly(codec.load(args.polynomial), "polynomial")
    try:
        cert = is_salem(poly)
    except NotSalemError as exc:
        _emit(
            {"accepted": False, "reason": exc.reason},
            [f"rejected: {exc.reason}"],
            args.format,
        )
        return 1
    lo, hi = cert.lambda_interval
    _emit(
        {
            "accepted": True,
            "degree": cert.degree,
            "trace_polynomial": codec.poly_to_json(cert.trace_polynomial),
            "lambda_interval": [str(lo), str(hi)],
            "quadratic_degenerate": cert.quadratic_degenerate,
        },
        [
            f"Salem polynomial of degree {cert.degree}",
            f"trace polynomial: {cert.trace_polynomial}",
            f"lambda in ({lo}, {hi}]",
            f"quadratic degenerate: {cert.quadratic_degenerate}",
        ],
        args.format,
    )
    return 0


def cmd_realizable(args):
    from .polynomials import NotSalemError
    from .realize import stable_realizable

    poly = codec.poly(codec.load(args.polynomial), "polynomial")
    try:
        decision = stable_realizable(poly, args.surface_class, projective=args.projective)
    except NotSalemError as exc:
        raise ValueError(f"not a Salem polynomial: {exc.reason}") from None
    payload = {
        "realizable": decision.answer,
        "reason": decision.reason,
        "clause": decision.clause,
        "class": args.surface_class,
        "projective": args.projective,
    }
    _emit(payload, [("yes: " if decision.answer else "no: ") + decision.reason], args.format)
    return 0 if decision.answer else 1


def cmd_build_certificate(args):
    from .realize import Seed, build_k3_certificate, certificate_to_json, seed_for

    poly = codec.poly(codec.load(args.polynomial), "polynomial")
    if args.seed:
        doc = _read(args.seed, SEED, "seed")
        _isometry(doc["S"], doc["f_S"], "seed.f_S")
        seed = Seed(**doc)
    else:
        seed = seed_for(poly)
    cert = build_k3_certificate(poly, seed=seed)
    text = codec.dumps(certificate_to_json(cert))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write output file {args.output}: {exc.strerror}") from None
        _emit(
            {"written": args.output, "power": cert.power},
            [f"certificate written to {args.output} (power {cert.power})"],
            args.format,
        )
    else:
        print(text)
    return 0


def cmd_verify(args):
    from .realize import certificate_from_json, verify_certificate

    ok, items = verify_certificate(certificate_from_json(codec.load(args.certificate)))
    payload = {
        "verified": ok,
        "items": [{"check": n, "passed": p, "detail": d} for n, p, d in items],
    }
    lines = [("verified" if ok else "FAILED")] + [
        f"  [{'ok' if p else 'FAIL'}] {n}: {d}" for n, p, d in items
    ]
    _emit(payload, lines, args.format)
    return 0 if ok else 1


def cmd_positivity(args):
    from .positivity import is_positive

    _, L, f = _read_pair(args.pair, PAIR, "pair")
    start = time.perf_counter()
    report = is_positive(L, f)
    elapsed = time.perf_counter() - start
    # timing goes to the text report only; JSON output stays byte-deterministic
    lines = [f"{report.status} (method: {report.method}, {elapsed:.3f}s)"] + [
        f"  witness {list(v)} [{kind}]" for v, kind in report.witnesses
    ]
    _emit(codec.report_to_json(report), lines, args.format)
    return 0 if report.status == "positive" else (1 if report.status == "not_positive" else 2)


def cmd_twist(args):
    from .isometries import TwistElement, twist

    doc, L, f = _read_pair(args.input, TWIST, "twist")
    twisted, f2 = twist(L, f, TwistElement(doc["element"]))
    payload = {
        "lattice": codec.lattice_to_json(twisted),
        "isometry": codec.matrix_to_json(f2.matrix),
        "determinant": str(twisted.determinant()),
    }
    _emit(payload, [f"twisted gram: {twisted.gram}", f"determinant: {twisted.determinant()}"], args.format)
    return 0


def cmd_power_integral(args):
    from .isometries import power_to_integral

    _, L, f = _read_pair(args.pair, PAIR, "pair")
    n, fn = power_to_integral(L, f)
    payload = {"power": n, "matrix": codec.matrix_to_json(fn.matrix)}
    _emit(payload, [f"f^{n} is integral", f"matrix: {fn.matrix}"], args.format)
    return 0


def cmd_twist_split_check(args):
    from .isometries import TwistElement, twist_split_certificate
    from .numbertheory import _power_exceeds

    doc, L, f = _read_pair(args.input, TWIST_SPLIT, "twist_split")
    limit = sys.get_int_max_str_digits()  # refuse, before t^n is formed, what str() cannot print
    if limit and _power_exceeds(doc["prime"], 2 * doc["exponent"], (10**limit - 1) // abs(L.determinant())):
        raise ValueError(f"twist_split.exponent: |det L| * prime^(2 exponent) has more than {limit} digits")
    report = twist_split_certificate(L, f, TwistElement(doc["element"]), doc["exponent"], doc["prime"])
    payload = {
        "passed": report.passed,
        "problems": list(report.problems),
        "determinant": str(report.determinant),
        "p_valuation": report.p_valuation,
        "p_part_orders": list(report.p_part_orders),
    }
    lines = [("pass" if report.passed else "fail")] + [f"  {p}" for p in report.problems]
    _emit(payload, lines, args.format)
    return 0 if report.passed else 1


def cmd_lattice(args):
    from .lattices import named_lattice

    L = named_lattice(args.name)
    _emit(
        codec.lattice_to_json(L),
        [f"{args.name}: rank {L.rank}, signature {L.signature()}, det {L.determinant()}"],
        args.format,
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="salemk3",
        description="Salem numbers as dynamical degrees: decisions and lattice certificates",
    )
    parser.add_argument("--format", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify-salem", help="certify a Salem polynomial")
    p.add_argument("polynomial")
    p.set_defaults(func=cmd_certify_salem)

    p = sub.add_parser("realizable", help="stable realizability decision")
    p.add_argument("polynomial")
    p.add_argument("--class", dest="surface_class", required=True,
                   choices=("torus", "k3", "enriques"))
    p.add_argument("--projective", action="store_true")
    p.set_defaults(func=cmd_realizable)

    p = sub.add_parser("build-certificate", help="construct a projective K3 certificate")
    p.add_argument("polynomial")
    p.add_argument("--seed", default=None, help="seed JSON path (defaults to the curated library)")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_build_certificate)

    p = sub.add_parser("verify", help="verify a realization certificate")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("positivity", help="chamber-preservation report")
    p.add_argument("pair", help="JSON with fields lattice and isometry")
    p.set_defaults(func=cmd_positivity)

    p = sub.add_parser("twist", help="twist a lattice by an element of Z[f + f^-1]")
    p.add_argument("input", help="JSON with fields lattice, isometry, element")
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("power-integral", help="smallest integral power of a rational isometry")
    p.add_argument("pair")
    p.set_defaults(func=cmd_power_integral)

    p = sub.add_parser("twist-split-check", help="split-prime twist certificate")
    p.add_argument("input", help="JSON with lattice, isometry, element, exponent, prime")
    p.set_defaults(func=cmd_twist_split_check)

    p = sub.add_parser("lattice", help="emit a named lattice as JSON")
    p.add_argument("name", choices=NAMED_LATTICES)
    p.set_defaults(func=cmd_lattice)

    # --format may also follow the subcommand; SUPPRESS keeps the value given
    # before it when it is absent there
    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    return parser


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        # every library error is a ValueError; each one exits 2 here
        _emit({"error": str(exc)}, [f"error: {exc}"], args.format)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
