"""Command-line interface.

Subcommands: rr, character, main-formula, witten-check, verify.
Input is either --builtin NAME or --input FILE (a presentation document).
A command returns 0, or 1 for a failed verify check; every other failure
reaches the user through `main`, by one table, `_FAILURES`: exit 2 for an
input error (`model.InputError`, which `ParseError` is, or `Unsupported`)
and for a number too large to compute with (a weight, moment, m or
coefficient) or a result too large to print, 3 for a mathematical
inconsistency (`NotAPolynomial`, from the one division of the character
that every command makes at each m; verify counts it a failed check), 1
for a numeric failure of witten-check (`CancellationError`).  Each is one
stderr line, and none is a traceback.

Every command loads `model`, `ring`, `zrational` and `localization`, and
`builtins` for a --builtin input; main-formula and verify add `quantize`
(verify of a builtin also `oracle`), witten-check numpy and the u-series
(`useries`, through `witten`).  None loads the builders or argparse.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

from . import localization
from .model import (CancellationError, InputError, ManifoldPresentation,
                    Unsupported, parse)
from .ring import brief
from .zrational import NotAPolynomial

EXIT_OK, EXIT_VERIFY, EXIT_INPUT, EXIT_MATH = range(4)

# (failure types, exit code, start of the one stderr line): how every
# failure of a command reaches the user, in `main` only
_FAILURES = (
    ((InputError, Unsupported), EXIT_INPUT, "error: "),
    ((OverflowError, MemoryError), EXIT_INPUT,
     "error: a number is too large: "),
    ((NotAPolynomial,), EXIT_MATH, "mathematical inconsistency: "),
    ((CancellationError,), EXIT_VERIFY, "numeric failure: "))


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
        else:
            ms = [integer(s) for s in spec.split(",")]
    except ValueError:
        raise InputError(
            f"{where}: expected INT, A:B or a comma list of integers")
    if not ms:
        raise InputError(f"{where}: empty m range")
    if min(ms) < 0:
        raise InputError(f"{where}: m must be nonnegative")
    return ms


def _load(args) -> ManifoldPresentation:
    if args.builtin and args.input:
        raise InputError("specify exactly one of --builtin / --input")
    if args.builtin:
        from . import builtins as bi
        return bi.builtin(args.builtin)
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                return parse(fh.read())
        except (OSError, UnicodeDecodeError) as e:
            # an OSError's own text repeats the path, which `brief` cuts
            raise InputError(f"cannot read {brief(args.input)}: "
                             f"{getattr(e, 'strerror', None) or e}")
    raise InputError("an input is required: --builtin NAME or --input FILE")


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1)
          if args.format == "json" else "\n".join(text_lines))


def _per_m(step):
    """The command that loads its input, then reports step(p, m) for each m
    of --m.  A step computes, then returns the function that writes its
    (record, text line), so that the one ValueError of writing is an int
    past str()'s 4,300-digit limit: a result too large to print."""
    def cmd(args) -> int:
        p = _load(args)
        writers = [(m, step(p, m)) for m in _parse_m_spec(args.m)]
        try:
            rows = [(m, *write()) for m, write in writers]
            _emit(args, {"input": p.name, "results": [
                {"m": m, **record} for m, record, _ in rows]},
                [line for _, _, line in rows])
        except ValueError:
            raise OverflowError("a result has more than "
                                f"{sys.get_int_max_str_digits()} digits"
                                ) from None
        return EXIT_OK
    return cmd


@_per_m
def cmd_rr(p: ManifoldPresentation, m: int):
    chi = localization.character(p, m)
    rr, total = chi.coefficient(0), chi.evaluate_at_one()
    return lambda: ({"rr_invariant": rr, "rr_total": total},
                    f"m={m} rr_invariant={rr} rr_total={total}")


@_per_m
def cmd_character(p: ManifoldPresentation, m: int):
    chi = localization.character(p, m)
    return lambda: ({"coefficients": {
        str(e): c for e, c in chi.coeffs.items()}}, f"m={m}: {chi}")


@_per_m
def cmd_main_formula(p: ManifoldPresentation, m: int):
    from . import quantize
    rep = quantize.main_formula_report(p, m)

    def write() -> tuple[dict, str]:
        record = {
            "rr_invariant": rep.rr, "balance": rep.balance,
            "residue_terms": {
                name: {"classification": cls, "value": str(v)}
                for name, (cls, v) in sorted(rep.residue_terms.items())},
            "exceptional_terms": {name: str(v) for name, v
                                  in sorted(rep.exceptional_terms.items())},
            "regular_term": {"tag": rep.regular_tag,
                             "value": str(rep.regular)}}
        bal = {True: "balance=true", False: "balance=FALSE",
               None: "balance=n/a(diagnostic)"}[rep.balance]
        return record, (f"m={m} rr={rep.rr} residues={rep.residue_sum()} "
                        f"exceptional={rep.exceptional_sum()} "
                        f"regular[{rep.regular_tag}]={rep.regular} {bal}")
    return write


def cmd_witten_check(args) -> int:
    p = _load(args)
    from . import witten  # the only command that loads numpy
    ms = _parse_m_spec(args.m)
    if len(set(ms)) < 4 or min(ms) < 1:
        raise InputError(f"--m {brief(args.m)}: the decay fit needs at "
                         "least four distinct m >= 1")
    # a weight whose Todd series diverges on the bump's support is an
    # InputError from the first m's expansion, before any pairing
    rep = witten.decay_check(p, witten.TestFunction(), ms)
    regular = "diagnostic" if p.quotient is None else "supplied"
    payload = {"input": p.name, "m_values": rep.m_values, "diffs": rep.diffs,
               "exponent": rep.exponent, "regular": regular, **{
                   side: [{"im": z.imag, "re": z.real} for z in values]
                   for side, values in (("lhs", rep.lhs), ("rhs", rep.rhs))}}
    lines = [f"m={m} |lhs-rhs|={d:.3e}"
             for m, d in zip(rep.m_values, rep.diffs)]
    lines += [f"decay exponent: {rep.exponent:.3f}",
              f"regular term: {regular}"]
    _emit(args, payload, lines)
    return EXIT_OK


def _verify_one(p: ManifoldPresentation, oracle) -> list[str]:
    """Run the checks that depend on the document; returns the failure
    descriptions.  The division certifies that poles cancel and that every
    character coefficient is an integer; a builtin's character must equal
    its enumeration oracle (oracle(name, m), None for a document), and
    supplied quotient data must balance the main formula."""
    from . import quantize
    name = p.name
    failures = []
    try:
        for m in range(0, 7):
            chi = localization.character(p, m)
            if oracle and chi != (want := oracle(name, m)):
                failures.append(f"{name}: oracle m={m} (character {chi} != "
                                f"oracle {want})")
        for m in range(1, 5) if p.quotient is not None else ():
            if quantize.main_formula_report(p, m).balance is not True:
                failures.append(f"{name}: main-formula balance m={m}")
    except NotAPolynomial as e:
        failures.append(f"{name}: character division ({e})")
    return failures


def cmd_verify(args) -> int:
    if args.builtin:    # a builtin is checked against its enumeration oracle
        from . import builtins as bi
    if args.builtin == "all" and not args.input:    # else _load refuses both
        targets = [bi.builtin(n) for n in bi.builtin_names()]
    else:
        targets = [_load(args)]
    failures = []
    for p in targets:
        fs = _verify_one(p, bi.builtin_oracle if args.builtin else None)
        print(f"verify {p.name}: {'ok' if not fs else 'FAIL'}")
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


# (option, metavar, help); verify takes the first two only
_OPTIONS = (("--builtin", "BUILTIN", "named example presentation"),
            ("--input", "INPUT", "presentation document (JSON)"),
            ("--m", "M", "bundle power: INT, A:B range, or comma list"),
            ("--format", "{text,json}", "text (the default) or json"))


def _exit(code: int, *lines: str) -> None:
    """Help on stdout with exit 0, or an argv error on stderr with exit 2."""
    print("\n".join(lines), file=sys.stderr if code else sys.stdout)
    raise SystemExit(code)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """COMMAND, then `--option VALUE`, `--option=VALUE` or -h, as argparse
    read them but unabbreviated: a repeated option's last value counts, and
    a separate value starts with '-' only as a negative number or spaced."""
    names = [c[0] for c in _COMMANDS]
    usage = f"usage: equiloc [-h] {{{','.join(names)}}} ..."
    if argv[:1] in (["-h"], ["--help"]):
        _exit(EXIT_OK, usage, "", "invariant Riemann-Roch numbers from "
              "fixed-point data", "", *(f"  {n:<22}{t}"
                                        for n, *_, t in _COMMANDS))
    if not argv or argv[0] not in names:
        _exit(EXIT_INPUT, usage, "equiloc: error: " + (
            f"argument command: invalid choice: {argv[0]!r} (choose from "
            f"{', '.join(map(repr, names))})" if argv else
            "the following arguments are required: command"))
    name, fn, m_default, about = _COMMANDS[names.index(argv[0])]
    options = _OPTIONS[:2 if m_default is None else 4]
    command_usage = " ".join([f"usage: equiloc {name} [-h]",
                              *(f"[{o} {v}]" for o, v, _ in options)])
    args = SimpleNamespace(fn=fn, m=m_default, builtin=None, input=None,
                           format="text")
    extras, tokens = [], iter(argv[1:])
    for token in tokens:
        option, eq, value = token.partition("=")
        if token in ("-h", "--help"):
            _exit(EXIT_OK, command_usage, "", about, "", *(
                f"  {o + ' ' + v:<22}{t}" for o, v, t in options))
        elif option not in [o for o, _, _ in options]:
            extras.append(token)
            continue
        value = value if eq else next(tokens, None)
        if not eq and (value is None or re.fullmatch(
                r"-(?!\d+$|\d*\.\d+$)[^ ]+", value)):
            error = "expected one argument"
        elif option == "--format" and value not in ("text", "json"):
            error = f"invalid choice: {value!r} (choose from 'text', 'json')"
        else:
            setattr(args, option[2:], value)
            continue
        _exit(EXIT_INPUT, command_usage,
              f"equiloc {name}: error: argument {option}: {error}")
    if extras:
        _exit(EXIT_INPUT, usage, "equiloc: error: unrecognized arguments: "
              + " ".join(extras))
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.fn(args)
    except tuple(t for types, _, _ in _FAILURES for t in types) as e:
        code, start = next((code, start) for types, code, start in _FAILURES
                           if isinstance(e, types))
        print(f"{start}{str(e) or type(e).__name__}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
