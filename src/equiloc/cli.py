"""Command-line interface.

Subcommands: rr, character, main-formula, witten-check, verify.
Input is either --builtin NAME or --input FILE (a presentation document).
Exit codes: 0 success, 1 verification failure (float cancellation or an
unsettled quadrature in witten-check included), 2 input error (a weight,
moment or m too large to compute with, and for witten-check a weight whose
Todd series diverges on the bump's support, included), 3 mathematical
inconsistency (poles fail to cancel, or a character coefficient is not an
integer) on every exact command.

Only witten-check pairs numerically, so it is the only command that
imports numpy and the pairing's u-series (`useries`, through `witten`):
the exact commands skip that import, and no command loads the builders.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import builtins as bi
from . import localization, quantize
from .model import ManifoldPresentation, ParseError, parse
from .ring import brief
from .zrational import NotAPolynomial

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_MATH = 3


def _complex_obj(z: complex) -> dict:
    return {"im": z.imag, "re": z.real}


def _parse_m_spec(spec: str) -> list[int]:
    """INT, an inclusive A:B range or a comma list, all m >= 0; anything
    else is an input error.  An INT is ASCII digits with an optional
    leading '-', as in the document grammar, so that Python's other integer
    spellings (1_0, +3, non-ASCII digits) are rejected."""
    def integer(s: str) -> int:
        if not re.fullmatch(r"\s*-?[0-9]+\s*", s):
            raise ValueError(s)
        return int(s)

    where = f"--m {brief(spec)}"
    try:
        if ":" in spec:
            lo, hi = spec.split(":", 1)
            ms = list(range(integer(lo), integer(hi) + 1))
            if not ms:
                raise SystemExit2(f"{where}: empty m range")
        else:
            ms = [integer(s) for s in spec.split(",")]
    except ValueError:
        raise SystemExit2(
            f"{where}: expected INT, A:B or a comma list of integers")
    if min(ms) < 0:
        raise SystemExit2(f"{where}: m must be nonnegative")
    return ms


def _load(args) -> ManifoldPresentation:
    if args.builtin and args.input:
        raise SystemExit2("specify exactly one of --builtin / --input")
    if args.builtin:
        try:
            return bi.builtin(args.builtin)
        except KeyError as e:
            raise SystemExit2(e.args[0])
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise SystemExit2(f"cannot read {args.input}: {e}")
        try:
            return parse(text)
        except ParseError as e:
            raise SystemExit2(str(e))
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


def _per_m(step):
    """The command that loads its input, then reports step(p, m) ->
    (record, text line) for each m of --m."""
    def cmd(args) -> int:
        p = _load(args)
        results = []
        lines = []
        for m in _parse_m_spec(args.m):
            record, line = step(p, m)
            results.append({"m": m, **record})
            lines.append(line)
        _emit(args, {"input": p.name, "results": results}, lines)
        return EXIT_OK
    return cmd


@_per_m
def cmd_rr(p: ManifoldPresentation, m: int) -> tuple[dict, str]:
    chi = localization.character(p, m)
    rr, total = chi.coefficient(0), chi.evaluate_at_one()
    return ({"rr_invariant": rr, "rr_total": total},
            f"m={m} rr_invariant={rr} rr_total={total}")


@_per_m
def cmd_character(p: ManifoldPresentation, m: int) -> tuple[dict, str]:
    chi = localization.character(p, m)
    coeffs = {str(e): c for e, c in chi.coeffs.items()}
    return {"coefficients": coeffs}, f"m={m}: {chi}"


@_per_m
def cmd_main_formula(p: ManifoldPresentation, m: int) -> tuple[dict, str]:
    rep = quantize.main_formula_report(p, m)
    record = {
        "rr_invariant": rep.rr,
        "residue_terms": {
            name: {"classification": cls, "value": str(v)}
            for name, (cls, v) in sorted(rep.residue_terms.items())},
        "exceptional_terms": {
            name: str(v) for name, v in sorted(rep.exceptional_terms.items())},
        "regular_term": {"tag": rep.regular_tag, "value": str(rep.regular)},
        "balance": rep.balance,
    }
    bal = {True: "balance=true", False: "balance=FALSE",
           None: "balance=n/a(diagnostic)"}[rep.balance]
    return record, (f"m={m} rr={rep.rr} residues={rep.residue_sum()} "
                    f"exceptional={rep.exceptional_sum()} "
                    f"regular[{rep.regular_tag}]={rep.regular} {bal}")


def cmd_witten_check(args) -> int:
    p = _load(args)
    # read every exceptional term before numpy loads and the fit and the
    # pairings run, so that an unsupported component fails at once
    for F in p.f_zero():
        if F.classification is quantize.Classification.INDEFINITE:
            F.exceptional
    from . import witten  # the only command that loads numpy
    ms = _parse_m_spec(args.m)
    if len(set(ms)) < 4 or min(ms) < 1:
        raise SystemExit2(f"--m {brief(args.m)}: the decay fit needs at "
                          "least four distinct m >= 1")
    phi = witten.TestFunction()
    try:
        # the Todd series must converge on phi's support
        witten.default_series_order(p, phi.delta2)
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


def _verify_one(p: ManifoldPresentation, name: str,
                with_oracle: bool) -> list[str]:
    """Run the checks that depend on the document; returns the failure
    descriptions.  The division certifies that poles cancel and that every
    character coefficient is an integer; a builtin's character must equal
    its enumeration oracle, and supplied quotient data must balance the
    main formula."""
    failures = []
    try:
        for m in range(0, 7):
            chi = localization.character(p, m)
            if with_oracle and chi != (want := bi.builtin_oracle(name, m)):
                failures.append(f"{name}: oracle m={m} (character {chi} != "
                                f"oracle {want})")
        for m in range(1, 5) if p.quotient is not None else ():
            if quantize.main_formula_report(p, m).balance is not True:
                failures.append(f"{name}: main-formula balance m={m}")
    except NotAPolynomial as e:
        failures.append(f"{name}: character division ({e})")
    return failures


def cmd_verify(args) -> int:
    if args.builtin == "all":
        if args.input:
            raise SystemExit2("specify exactly one of --builtin / --input")
        targets = [(n, bi.builtin(n), True) for n in bi.builtin_names()]
    else:
        p = _load(args)
        targets = [(p.name, p, args.builtin is not None
                    and args.builtin in bi.builtin_names())]
    failures = []
    for name, p, with_oracle in targets:
        fs = _verify_one(p, name, with_oracle)
        print(f"verify {name}: {'ok' if not fs else 'FAIL'}")
        failures.extend(fs)
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return EXIT_OK if not failures else EXIT_VERIFY


# (name, handler, default --m, help); verify (no --m) fixes its m and
# prints text only
_COMMANDS = (
    ("rr", cmd_rr, "0:8", "invariant and total Riemann-Roch numbers"),
    ("character", cmd_character, "0:8", "the index character in z"),
    ("main-formula", cmd_main_formula, "1:6",
     "residue/exceptional/regular decomposition"),
    ("witten-check", cmd_witten_check, "8,16,32,64",
     "pairing vs expansion decay fit"),
    ("verify", cmd_verify, None, "run the invariant suite"))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="equiloc",
        description="invariant Riemann-Roch numbers from fixed-point data")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, m_default, help_text in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--builtin", help="named example presentation")
        sp.add_argument("--input", help="presentation document (JSON)")
        if m_default is not None:
            sp.add_argument("--m", default=m_default,
                            help="bundle power: INT, A:B range, or comma list")
            sp.add_argument("--format", choices=("text", "json"),
                            default="text")
        sp.set_defaults(fn=fn)
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
    except (OverflowError, MemoryError) as e:
        # a weight, moment or m far beyond any index-sized series length
        print(f"error: a weight, moment or m is too large: "
              f"{str(e) or type(e).__name__}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
