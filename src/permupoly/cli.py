"""Command-line front end.

Exit codes: 0 = all checks passed; 1 = a mathematical discrepancy (failed
scan, permutation check contradicting the assertion); 2 = usage or input
error.  Human-readable summary goes to stdout; with --out, a machine
report is written as JSON (scans also support --format csv).
"""

import argparse
import json
import shlex
import sys

from .circle import decompose, solve_quadratic, sqrt_char2, unit_circle
from .families import (ELEMENT_PARAMS, FAMILY_IDS, INT_PARAMS, SCHEMA,
                       FamilyParams, field_for_family, make_family)
from .field import build_field, parse_field_descriptor
from .perm import is_complete_permutation, is_permutation, lemma1_check
from .poly import SparsePoly, parse_poly, to_text
from .scan import scan_necessity, scan_sufficiency, write_report

EXIT_OK = 0
EXIT_DISCREPANCY = 1
EXIT_USAGE = 2


def _field_from_args(args):
    if getattr(args, "field", None):
        p, n, modulus = parse_field_descriptor(args.field)
    else:
        raise ValueError("--field is required")
    if getattr(args, "modulus", None):
        modulus = int(args.modulus, 0)
    return build_field(p, n, modulus)


def _write_out(args, payload):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def cmd_field_info(args):
    ctx = _field_from_args(args)
    print(f"field GF({ctx.p}^{ctx.n}), q = {ctx.q}")
    print(f"modulus {hex(ctx.modulus_code)} (coefficients, constant first: "
          f"{list(ctx.modulus)})")
    print(f"generator {ctx.format_element(ctx.generator)} = code {ctx.generator}")
    print(f"log tables: {'yes' if ctx.has_tables else 'no'}")
    divisors = [m for m in range(1, ctx.n + 1) if ctx.n % m == 0]
    print(f"subfield degrees: {divisors}")
    _write_out(args, {"p": ctx.p, "n": ctx.n, "q": ctx.q,
                      "modulus": hex(ctx.modulus_code),
                      "generator": ctx.generator})
    return EXIT_OK


def cmd_check_pp(args):
    ctx = _field_from_args(args)
    f = parse_poly(ctx, args.poly)
    rep = is_complete_permutation(ctx, f) if args.complete else is_permutation(ctx, f)
    print(rep.verdict)
    if rep.witness is not None:
        w = rep.witness
        print(f"witness: f({ctx.format_element(w[0])}) = "
              f"f({ctx.format_element(w[1])}), image size {rep.image_size}/{ctx.q}")
    if args.complete:
        print(f"complete: {'yes' if rep.complete else 'no'}")
    _write_out(args, rep.to_dict(ctx))
    want = args.assert_ or "pp"
    got = "pp" if rep.permutation else "not-pp"
    return EXIT_OK if want == got else EXIT_DISCREPANCY


def cmd_lemma1(args):
    ctx = _field_from_args(args)
    h_comp = parse_poly(ctx, args.h)
    # h must be a plain monomial sum
    pairs = []
    for c, base, e in h_comp.terms:
        if not base.is_x() or e < 0:
            raise ValueError("h must be a plain polynomial in x")
        pairs.append((e, c))
    h = SparsePoly.make(ctx, pairs)
    rep = lemma1_check(ctx, args.r, args.d, h)
    print(f"gcd(r, (q-1)/d) = 1: {rep.gcd_ok}")
    print(f"x^r h(x)^((q-1)/d) permutes mu_d: {rep.circle_ok}")
    print("permutes the field" if rep.ok else "does not permute the field")
    _write_out(args, rep.to_dict())
    return EXIT_OK if rep.ok else EXIT_DISCREPANCY


def _family_params(args, ctx):
    values = {}
    for name in INT_PARAMS + ELEMENT_PARAMS:
        v = getattr(args, name)
        if v is not None:
            values[name] = v if name in INT_PARAMS else ctx.parse_element(v)
    return FamilyParams(family=args.family, ctx=ctx, **values)


def _family_field_params(args):
    out = {}
    for name in SCHEMA[args.family][0]:
        v = getattr(args, name)
        if v is None:
            raise ValueError(f"family {args.family} needs --{name}")
        out[name] = v
    return out


def cmd_family(args):
    field_params = _family_field_params(args)
    modulus = int(args.modulus, 0) if args.modulus else None
    ctx = field_for_family(args.family, field_params, modulus)
    params = _family_params(args, ctx)
    poly, checklist = make_family(params)
    print(f"field {ctx!r}")
    print(f"g(x) = {to_text(ctx, poly)}")
    for e in checklist.entries:
        mark = "ok" if e.ok else "FAIL"
        extra = "" if e.gating else " [reported only]"
        print(f"  [{mark}] {e.name}{extra}  ({e.detail})")
    rep = is_permutation(ctx, poly)
    print(rep.verdict)
    payload = {"field": ctx.descriptor(), "params": params.to_dict(),
               "poly": to_text(ctx, poly), "checklist": checklist.to_list(),
               "perm": rep.to_dict(ctx)}
    _write_out(args, payload)
    if checklist.satisfied() and not rep.permutation:
        return EXIT_DISCREPANCY
    return EXIT_OK


def cmd_scan(args):
    field_params = _family_field_params(args)
    modulus = int(args.modulus, 0) if args.modulus else None
    if args.mode == "necessity":
        report = scan_necessity(args.family, field_params, modulus=modulus)
    else:
        report = scan_sufficiency(args.family, field_params, modulus=modulus)
    report.command = _reconstruct_command(args, report)
    t = report
    print(f"scan {t.family} mode={t.mode} over GF({t.field['p']}^{t.field['n']})"
          f" modulus {t.field['modulus']}")
    print(f"tuples {t.total}, satisfying {t.satisfying}, "
          f"pp among satisfying {t.pp_true_satisfying}, "
          f"pp among violating {t.pp_true_violating}")
    if t.mode == "necessity":
        c = t.confusion
        print(f"confusion: tt={c['tt']} tf={c['tf']} ft={c['ft']} ff={c['ff']}")
    print(f"discrepancies: {t.discrepancy_count}"
          + (" (sampled violating side)" if t.sampled else ""))
    print("PASS" if t.passed else "FAIL")
    if t.passed and t.satisfying == 0:
        print("warning: no tuple satisfies the hypotheses; PASS is vacuous",
              file=sys.stderr)
    if args.out:
        write_report(report, args.out, args.format)
        print(f"report written to {args.out}")
    return EXIT_OK if report.passed else EXIT_DISCREPANCY


def _reconstruct_command(args, report):
    parts = ["permupoly", "scan", "--family", args.family, "--mode", args.mode]
    for name in INT_PARAMS:
        v = getattr(args, name)
        if v is not None:
            parts += [f"--{name}", str(v)]
    parts += ["--modulus", report.field["modulus"]]
    if args.out:
        parts += ["--out", args.out, "--format", args.format]
    return shlex.join(parts)


def cmd_decompose(args):
    ctx = _field_from_args(args)
    x = ctx.parse_element(args.x)
    d = decompose(ctx, x)
    print(f"{ctx.format_element(x)} = u * lambda with "
          f"u = {ctx.format_element(d.u)}, lambda = {ctx.format_element(d.lam)}")
    print(f"unit circle size: {len(unit_circle(ctx))}")
    _write_out(args, d.to_dict(ctx))
    return EXIT_OK


def cmd_solve_quad(args):
    ctx = _field_from_args(args)
    u = ctx.parse_element(args.u)
    v = ctx.parse_element(args.v)
    if u == 0:
        root = sqrt_char2(ctx, v)
        print(f"degenerate (u = 0): single root {ctx.format_element(root)}")
        _write_out(args, {"roots": [ctx.format_element(root)]})
        return EXIT_OK
    roots = solve_quadratic(ctx, u, v)
    if roots:
        print("roots: " + ", ".join(ctx.format_element(r) for r in roots))
    else:
        print("no roots (Tr(v/u^2) = 1)")
    _write_out(args, {"roots": [ctx.format_element(r) for r in roots]})
    return EXIT_OK


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="permupoly",
        description="permutation-polynomial toolkit over small finite fields")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_field(p):
        p.add_argument("--field", help="field descriptor p^n[:modulus=0x..]")
        p.add_argument("--modulus", help="modulus override, packed 0x.. code")
        p.add_argument("--out", help="write a JSON report here")

    p = sub.add_parser("field-info", help="describe a field")
    add_field(p)
    p.set_defaults(fn=cmd_field_info)

    p = sub.add_parser("check-pp", help="exhaustive permutation check")
    add_field(p)
    p.add_argument("--poly", required=True, help="polynomial text")
    p.add_argument("--complete", action="store_true",
                   help="also check f(x)+x (complete permutation)")
    p.add_argument("--assert", dest="assert_", choices=("pp", "not-pp"),
                   help="exit 0 only on this verdict (default pp)")
    p.set_defaults(fn=cmd_check_pp)

    p = sub.add_parser("lemma1",
                       help="coset criterion for x^r h(x^((q-1)/d))")
    add_field(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--h", required=True, help="polynomial text for h")
    p.set_defaults(fn=cmd_lemma1)

    def add_family_args(p):
        p.add_argument("--family", required=True, choices=FAMILY_IDS)
        for name in INT_PARAMS:
            p.add_argument(f"--{name}", type=int)
        for name in ELEMENT_PARAMS:
            p.add_argument(f"--{name}")
        p.add_argument("--modulus", help="modulus override, packed 0x.. code")
        p.add_argument("--out", help="write a JSON report here")

    p = sub.add_parser("family",
                       help="build a family instance and check it")
    add_family_args(p)
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("scan", help="scan a family parameter space")
    add_family_args(p)
    p.add_argument("--mode", choices=("sufficiency", "necessity"),
                   default="sufficiency")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("decompose",
                       help="unit-circle factorization x = u*lambda")
    add_field(p)
    p.add_argument("--x", required=True, help="element to decompose")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("solve-quad", help="roots of x^2 + u*x + v")
    add_field(p)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.set_defaults(fn=cmd_solve_quad)
    return ap


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (ValueError, TypeError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
