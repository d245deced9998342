"""Command-line interface.

Subcommands: rr, character, main-formula, witten-check, verify.
Input is either --builtin NAME or --input FILE (a presentation document).
Exit codes: 0 success, 1 verification failure (float cancellation in
witten-check included), 2 input error (a weight or moment too large to
compute with, and for witten-check a weight whose Todd series diverges on
the bump's support, included), 3 mathematical inconsistency (poles fail
to cancel).

Only witten-check pairs numerically, so it is the only command that
imports scipy (through `witten`), at its start: the exact commands skip
the 0.6-0.9 s that import adds to process start-up on a 2-core Linux
machine.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional

from . import builtins as bi
from . import localization, quantize
from .model import (ManifoldPresentation, ParseError, bundle_power, parse,
                    serialize, shift_moment, validate)
from .zrational import LaurentPolynomial, NotAPolynomial

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_MATH = 3


def _complex_obj(z: complex) -> dict:
    return {"im": z.imag, "re": z.real}


def _parse_m_spec(spec: str) -> list[int]:
    """INT, an inclusive A:B range or a comma list, all m >= 0; anything
    else is an input error."""
    try:
        if ":" in spec:
            lo, hi = spec.split(":", 1)
            ms = list(range(int(lo), int(hi) + 1))
            if not ms:
                raise SystemExit2(f"--m {spec}: empty m range")
        else:
            ms = [int(s) for s in spec.split(",")]
    except ValueError:
        raise SystemExit2(
            f"--m {spec}: expected INT, A:B or a comma list of integers")
    if min(ms) < 0:
        raise SystemExit2(f"--m {spec}: m must be nonnegative")
    return ms


def _load(args) -> ManifoldPresentation:
    if args.builtin and args.input:
        raise SystemExit2("specify exactly one of --builtin / --input")
    if args.builtin:
        try:
            return bi.builtin(args.builtin)
        except KeyError as e:
            raise SystemExit2(str(e))
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise SystemExit2(f"cannot read {args.input}: {e}")
        try:
            return parse(text)
        except ParseError as e:
            msg = str(e)
            for d in e.diagnostics:
                msg += f"\n  {d}"
            raise SystemExit2(msg)
    raise SystemExit2("an input is required: --builtin NAME or --input FILE")


class SystemExit2(Exception):
    """Input-level error: reported on stderr, exit code 2."""


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ": "),
                         indent=1))
    else:
        for line in text_lines:
            print(line)


def _laurent_json(poly: LaurentPolynomial) -> dict:
    return {str(e): c for e, c in sorted(poly.as_integer_coeffs().items())}


def cmd_rr(args) -> int:
    p = _load(args)
    results = []
    lines = []
    for m in _parse_m_spec(args.m):
        coeffs = localization.character(p, m).as_integer_coeffs()
        rr, total = coeffs.get(0, 0), sum(coeffs.values())
        results.append({"m": m, "rr_invariant": rr, "rr_total": total})
        lines.append(f"m={m} rr_invariant={rr} rr_total={total}")
    _emit(args, {"input": p.name, "results": results}, lines)
    return EXIT_OK


def cmd_character(args) -> int:
    p = _load(args)
    results = []
    lines = []
    for m in _parse_m_spec(args.m):
        chi = localization.character(p, m)
        results.append({"m": m, "coefficients": _laurent_json(chi)})
        lines.append(f"m={m}: {chi}")
    _emit(args, {"input": p.name, "results": results}, lines)
    return EXIT_OK


def cmd_main_formula(args) -> int:
    p = _load(args)
    results = []
    lines = []
    for m in _parse_m_spec(args.m):
        rep = quantize.main_formula_report(p, m)
        results.append({
            "m": m,
            "rr_invariant": rep.rr,
            "residue_terms": {
                name: {"classification": cls, "value": str(v)}
                for name, (cls, v) in sorted(rep.residue_terms.items())},
            "exceptional_terms": {
                name: str(v)
                for name, v in sorted(rep.exceptional_terms.items())},
            "regular_term": {"tag": rep.regular_tag,
                             "value": str(rep.regular)},
            "balance": rep.balance,
        })
        bal = {True: "balance=true", False: "balance=FALSE",
               None: "balance=n/a(diagnostic)"}[rep.balance]
        lines.append(
            f"m={m} rr={rep.rr} residues={rep.residue_sum()} "
            f"exceptional={rep.exceptional_sum()} "
            f"regular[{rep.regular_tag}]={rep.regular} {bal}")
    _emit(args, {"input": p.name, "results": results}, lines)
    return EXIT_OK


def cmd_witten_check(args) -> int:
    p = _load(args)
    # read every exceptional term before scipy loads and the fit and the
    # pairings run, so that an unsupported component fails at once
    for F in p.f_zero():
        if quantize.classify(F) is quantize.Classification.INDEFINITE:
            F.exceptional
    from . import witten  # the only command that loads scipy
    ms = _parse_m_spec(args.m)
    if len(ms) < 4 or min(ms) < 1:
        raise SystemExit2(
            f"--m {args.m}: the decay fit needs at least four m >= 1")
    phi = witten.TestFunction()
    try:
        # the Todd series must converge on phi's support
        localization.default_series_order(p, phi.delta2)
    except ValueError as e:
        raise SystemExit2(str(e))
    try:
        rep = witten.decay_check(p, phi, ms)
    except witten.CancellationError as e:
        # float cancellation in the pairing, not proof of bad data
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_VERIFY
    payload = {
        "input": p.name,
        "m_values": rep.m_values,
        "lhs": [_complex_obj(z) for z in rep.lhs],
        "rhs": [_complex_obj(z) for z in rep.rhs],
        "diffs": rep.diffs,
        "exponent": rep.exponent,
    }
    lines = [f"m={m} |lhs-rhs|={d:.3e}"
             for m, d in zip(rep.m_values, rep.diffs)]
    lines.append(f"decay exponent: {rep.exponent:.3f}")
    _emit(args, payload, lines)
    return EXIT_OK


def _verify_one(p: ManifoldPresentation, name: str, tolerance: float,
                seed: int, with_oracle: bool) -> tuple[list[str], list[str]]:
    """Run the invariant suite; returns failure and skipped-check
    descriptions."""
    failures = []
    skipped = []

    def check(label: str, ok: bool, detail: str = ""):
        if not ok:
            failures.append(f"{name}: {label}" + (f" ({detail})" if detail
                                                  else ""))

    diags = validate(p)
    check("validation", not diags, "; ".join(map(str, diags)))
    if diags:
        return failures, skipped
    try:
        check("round-trip", serialize(parse(serialize(p))) == serialize(p))
    except ParseError as e:
        check("round-trip", False, str(e))
    try:
        for m in range(0, 7):
            chi = localization.character(p, m)
            if with_oracle:
                want = bi.builtin_oracle(name, m).to_laurent()
                check(f"oracle m={m}", chi == want,
                      f"character {chi} != oracle {want}")
            lo, hi = chi.support()
            jmin = min(F.moment for F in p.components)
            jmax = max(F.moment for F in p.components)
            check(f"weight-support m={m}",
                  chi.coeffs == {} or (lo >= m * jmin and hi <= m * jmax))
            check(f"integer-character m={m}",
                  all(c.denominator == 1 for c in chi.coeffs.values()))
    except NotAPolynomial as e:
        failures.append(f"{name}: pole-cancellation ({e})")
        return failures, skipped
    if p.free_on_regular:
        fit = quantize.polynomiality_check(p, 1, p.dim_M // 2 + 3)
        check("polynomiality", fit.max_residual() == 0,
              f"residual {fit.max_residual()}")
    if p.quotient is not None:
        for m in range(1, 5):
            rep = quantize.main_formula_report(p, m)
            check(f"main-formula balance m={m}", rep.balance is True)
    # the Todd series converges for |x| * weight < 1; at the sample x = 0.1
    # the check keeps |x| * weight below 0.9
    k = p.max_weight()
    if k < 9:
        dev = localization.kirillov_check(p, 2, [0.05, 0.1])
        check("kirillov", dev < tolerance, f"deviation {dev:.2e}")
    else:
        skipped.append(f"{name}: kirillov (max weight {k} >= 9)")
    rng = random.Random(seed)
    for trial in range(3):
        s = rng.randint(-3, 3)
        k = rng.randint(1, 2)
        q = bundle_power(shift_moment(p, s), k)
        try:
            m = 2
            chi_q = localization.character(q, m)
            chi_p = localization.character(bundle_power(p, k), m)
            shifted = LaurentPolynomial(
                {e + m * k * s: c for e, c in chi_p.coeffs.items()})
            check(f"shift/power coherence trial {trial}", chi_q == shifted)
        except NotAPolynomial as e:
            failures.append(
                f"{name}: pole-cancellation under transform ({e})")
    return failures, skipped


def cmd_verify(args) -> int:
    if args.builtin == "all":
        targets = [(n, bi.builtin(n), True) for n in bi.builtin_names()]
    else:
        p = _load(args)
        targets = [(p.name, p, args.builtin is not None
                    and args.builtin in bi.builtin_names())]
    failures = []
    skipped = []
    for name, p, with_oracle in targets:
        fs, ss = _verify_one(p, name, args.tolerance, args.seed,
                             with_oracle)
        status = "ok" if not fs else "FAIL"
        print(f"verify {name}: {status}")
        failures.extend(fs)
        skipped.extend(ss)
    for s in skipped:
        print(f"SKIP {s}", file=sys.stderr)
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return EXIT_OK if not failures else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="equiloc",
        description="invariant Riemann-Roch numbers from fixed-point data")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, m_default: Optional[str] = "0:8"):
        # verify (m_default None) fixes its m and prints text only
        sp.add_argument("--builtin", help="named example presentation")
        sp.add_argument("--input", help="presentation document (JSON)")
        if m_default is not None:
            sp.add_argument("--m", default=m_default,
                            help="bundle power: INT, A:B range, or comma list")
            sp.add_argument("--format", choices=("text", "json"),
                            default="text")

    sp = sub.add_parser("rr", help="invariant and total Riemann-Roch numbers")
    common(sp)
    sp.set_defaults(fn=cmd_rr)
    sp = sub.add_parser("character", help="the index character in z")
    common(sp)
    sp.set_defaults(fn=cmd_character)
    sp = sub.add_parser("main-formula",
                        help="residue/exceptional/regular decomposition")
    common(sp, m_default="1:6")
    sp.set_defaults(fn=cmd_main_formula)
    sp = sub.add_parser("witten-check",
                        help="pairing vs expansion decay fit")
    common(sp, m_default="8,16,32,64")
    sp.set_defaults(fn=cmd_witten_check)
    sp = sub.add_parser("verify", help="run the invariant suite")
    common(sp, m_default=None)
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for randomized consistency checks")
    sp.add_argument("--tolerance", type=float, default=1e-8,
                    help="numeric tolerance for float cross-checks")
    sp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (SystemExit2, quantize.Unsupported) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except NotAPolynomial as e:
        print(f"mathematical inconsistency: {e}", file=sys.stderr)
        return EXIT_MATH
    except OverflowError as e:
        # a weight or moment far beyond any index-sized series length
        print(f"error: a weight or moment is too large: {e}",
              file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
