"""Command-line interface: reports, schemas, exit codes, determinism."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equiloc
from equiloc import (builtin, builtin_names, cpn_linear, disjoint_union,
                     parse, product, serialize, shift_moment, trivial_cp1)
from equiloc.cli import main
from equiloc.model import ParseError, replace
from documents import (DUPLICATE_NAME, LONG, LONG_VALUES, NINES, REJECTED,
                       edited)

PACKAGE = Path(equiloc.__file__).resolve().parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_input(capsys, tmp_path, text, command, *argv):
    """`run` of `command --input FILE *argv`, FILE holding `text`."""
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    return run(capsys, command, "--input", str(path), *argv)


def test_rr_text(capsys):
    code, out, _ = run(capsys, "rr", "--builtin", "cp1", "--m", "5")
    assert code == 0
    assert "m=5 rr_invariant=1 rr_total=6" in out


def test_rr_cp001(capsys):
    code, out, _ = run(capsys, "rr", "--builtin", "cp001", "--m", "3")
    assert code == 0
    assert "rr_invariant=4" in out


def test_rr_json_schema(capsys):
    code, out, _ = run(capsys, "rr", "--builtin", "cp1", "--m", "0:2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["input"] == "cp1"
    assert doc["results"] == [
        {"m": 0, "rr_invariant": 1, "rr_total": 1},
        {"m": 1, "rr_invariant": 1, "rr_total": 2},
        {"m": 2, "rr_invariant": 1, "rr_total": 3}]


def test_character_text(capsys):
    code, out, _ = run(capsys, "character", "--builtin", "cp1", "--m", "2")
    assert code == 0 and "1 + z + z^2" in out
    code, out, _ = run(capsys, "character", "--builtin", "prod11",
                       "--m", "1")
    assert code == 0 and "z^-1 + 2 + z" in out
    code, out, _ = run(capsys, "character", "--builtin", "cp1", "--m", "0")
    assert code == 0 and "m=0: 1" in out


def test_character_json(capsys):
    code, out, _ = run(capsys, "character", "--builtin", "cp1", "--m", "2",
                       "--format", "json")
    doc = json.loads(out)
    assert doc["results"][0]["coefficients"] == {"0": 1, "1": 1, "2": 1}


def test_json_output_is_deterministic(capsys):
    args = ("character", "--builtin", "dgmw", "--m", "0:3",
            "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_main_formula_balance(capsys):
    code, out, _ = run(capsys, "main-formula", "--builtin", "dgmw",
                       "--m", "1:4")
    assert code == 0
    assert out.count("balance=true") == 4
    code, out, _ = run(capsys, "main-formula", "--builtin", "regval",
                       "--m", "1:4")
    assert code == 0 and out.count("balance=true") == 4
    code, out, _ = run(capsys, "main-formula", "--builtin", "prod11",
                       "--m", "2")
    assert code == 0 and "diagnostic" in out


def test_main_formula_json(capsys):
    code, out, _ = run(capsys, "main-formula", "--builtin", "dim6",
                       "--m", "2", "--format", "json")
    doc = json.loads(out)
    entry = doc["results"][0]
    assert entry["balance"] is True
    assert entry["regular_term"] == {"tag": "supplied", "value": "6"}
    assert all(v == "0" for v in entry["exceptional_terms"].values())


def test_input_file_roundtrip(tmp_path, capsys):
    code, out, _ = run_input(capsys, tmp_path, serialize(builtin("cp1")),
                             "rr", "--m", "5")
    assert code == 0 and "rr_total=6" in out


# Every document `parse` rejects is one short `error:` line, the
# ParseError's message, with exit 2 and no output; one row also goes
# through every other command.
@pytest.mark.parametrize("row, command", [
    *((row, "rr") for row in REJECTED),
    *((DUPLICATE_NAME, command) for command in (
        "character", "main-formula", "witten-check", "verify"))],
    ids=lambda value: getattr(value, "id", value))
def test_rejected_document_exits_2(tmp_path, capsys, row, command):
    with pytest.raises(ParseError) as err:
        parse(row.text)
    assert len(f"error: {err.value}") <= 200
    m = ("--m", "1") if command == "rr" else ()
    assert run_input(capsys, tmp_path, row.text, command, *m) == (
        2, "", f"error: {err.value}\n")


def test_missing_input_exits_2(capsys):
    code, _, err = run(capsys, "rr", "--m", "1")
    assert code == 2 and "required" in err


# cp1 with a weight doubled; with both doubled, chi = (1 - z^{m+2})/(1 - z^2)
# keeps a pole at z = -1 for odd m only
ONE_DOUBLED = (('"weight": 1', '"weight": 2'),)
BOTH_DOUBLED = ONE_DOUBLED + (('"weight": -1', '"weight": -2'),)


@pytest.mark.parametrize("command, code, doubled, argv", [
    *(pytest.param(command, code, ONE_DOUBLED, (), id=f"{command}-{code}")
      for command, code in (("rr", 3), ("character", 3), ("main-formula", 3),
                            ("witten-check", 3), ("verify", 1))),
    pytest.param("witten-check", 3, BOTH_DOUBLED, ("--m", "9,17,33,65"),
                 id="witten-check-both-doubled-odd-m"),
    pytest.param("witten-check", 0, BOTH_DOUBLED, (),
                 id="witten-check-both-doubled-even-m")])
def test_inconsistent_input_exit_codes(tmp_path, capsys, command, code,
                                       doubled, argv):
    # the character's poles fail to cancel: every command but verify exits
    # 3 from the same division, witten-check at every m of --m (its pairing
    # alone passed both weights doubled at odd m); verify counts it a failed
    # check.  At the default even m the doubled character divides.
    text = serialize(builtin("cp1"))
    for old, new in doubled:
        text = text.replace(old, new)
    got, out, err = run_input(capsys, tmp_path, text, command, *argv)
    assert got == code
    if code == 0:
        assert err == "" and "decay exponent" in out
    if code == 3:
        assert out == "" and err.count("\n") == 1
        assert err.startswith("mathematical inconsistency: poles at roots "
                              "of unity fail to cancel; ")


HALF_SPHERE = serialize(trivial_cp1()).replace('"h^1": "1"', '"h^1": "1/2"')


@pytest.mark.parametrize("command", ["main-formula", "rr", "character"])
def test_non_integer_multiplicity_exits_3(tmp_path, capsys, command):
    # the sphere's integral halved: the character at m = 2 is 3/2
    code, out, err = run_input(capsys, tmp_path, HALF_SPHERE, command,
                               "--m", "2")
    assert code == 3 and out == ""
    assert err.startswith("mathematical inconsistency: ")
    assert err.count("\n") == 1 and "3/2" in err


# cp1 beside the half sphere at moment 1: at m = 2 the z^0 coefficient is
# an integer and the z^2 coefficient 5/2 is not.
OFF_Z0 = serialize(disjoint_union(builtin("cp1"),
                                  shift_moment(parse(HALF_SPHERE), 1)))


@pytest.mark.parametrize("command", ["main-formula", "rr", "character"])
def test_non_integer_coefficient_off_z0_exits_3(tmp_path, capsys, command):
    code, out, err = run_input(capsys, tmp_path, OFF_Z0, command, "--m", "2")
    assert (code, out, err) == (
        3, "", "mathematical inconsistency: coefficient of z^2 is 5/2, "
        "not an integer\n")


def test_verify_non_integer_character_exits_1(tmp_path, capsys):
    code, out, err = run_input(capsys, tmp_path, OFF_Z0, "verify")
    assert code == 1 and out.endswith(": FAIL\n")
    assert err.count("\n") == 1
    assert err.endswith(": character division (coefficient of z^0 is 3/2, "
                        "not an integer)\n")


@pytest.mark.parametrize("command, m", [("main-formula", "1"),
                                        ("witten-check", "8,16,32,64")])
def test_unsupported_exceptional_exits_2(tmp_path, capsys, command, m):
    # valid data with positive-dimensional indefinite moment-zero
    # components, whose exceptional term a flat presentation cannot give
    code, out, err = run_input(capsys, tmp_path, serialize(product(
        trivial_cp1(), builtin("dim6"))), command, "--m", m)
    assert code == 2 and out == ""
    assert err.startswith("error: component ") and err.count("\n") == 1
    assert "positive-dimensional indefinite" in err


def test_witten_check_rejects_unsupported_before_pairing(tmp_path, capsys,
                                                        monkeypatch):
    # w0 is a CP^1 at moment 0 with weights -1, +1, +1: indefinite and
    # positive-dimensional, so witten-check must fail before it pairs
    from equiloc import witten

    def no_pairing(*args, **kwargs):
        raise AssertionError("witten_pair ran")

    monkeypatch.setattr(witten, "witten_pair", no_pairing)
    code, out, err = run_input(capsys, tmp_path, serialize(cpn_linear(
        [-1, 0, 0, 1, 1], 1, shift=-1)), "witten-check")
    assert code == 2 and out == ""
    assert err.startswith("error: component w0:") and err.count("\n") == 1


def test_witten_check_rejects_a_divergent_weight_before_pairing(
        tmp_path, capsys, monkeypatch):
    # weight 5 puts the singular circle |x| = 1/5 inside the bump's
    # support |x| <= 0.25, where the Todd series cannot converge
    from equiloc import witten

    def no_pairing(*args, **kwargs):
        raise AssertionError("witten_pair ran")

    monkeypatch.setattr(witten, "witten_pair", no_pairing)
    code, out, err = run_input(capsys, tmp_path, serialize(
        cpn_linear([0, 5], 1)), "witten-check")
    assert code == 2 and out == ""
    assert err.startswith("error: max weight 5:") and err.count("\n") == 1


def test_witten_check_without_quotient_decays(tmp_path, capsys):
    # no quotient data and a nonzero residue: the regular term is the
    # diagnostic rr - residues - exceptionals, so the residues count once
    code, out, _ = run_input(capsys, tmp_path, serialize(
        cpn_linear([0, 0, 1], 1)), "witten-check", "--format", "json")
    assert code == 0
    assert json.loads(out)["exponent"] <= -3


@pytest.mark.parametrize("text, regular", [
    (serialize(builtin("cp1")), "supplied"),
    (serialize(cpn_linear([0, 0, 1], 1)), "diagnostic")],
    ids=["supplied", "diagnostic"])
def test_witten_check_says_which_regular_term(tmp_path, capsys, text,
                                              regular):
    # the expansion's regular term is the quotient integral when the
    # document supplies one, else the diagnostic rr - residues -
    # exceptionals: the last text line and the json's `regular` say which
    code, out, _ = run_input(capsys, tmp_path, text, "witten-check")
    assert code == 0 and out.splitlines()[-1] == f"regular term: {regular}"
    code, out, _ = run_input(capsys, tmp_path, text, "witten-check",
                             "--format", "json")
    assert code == 0 and json.loads(out)["regular"] == regular


@pytest.mark.parametrize("command", ["rr", "character", "main-formula"])
@pytest.mark.parametrize("edits", [
    [(("components", 0, "blocks", 0, "weight"), 10 ** 30)],
    [(("components", 1, "moment"), 10 ** 30)],
    # two weights whose gcd 2*10**29 is huge too: the common denominator
    # takes gcds of the weights, never the list of a weight's divisors
    [(("components", 0, "blocks", 0, "weight"), 6 * 10 ** 29),
     (("components", 1, "blocks", 0, "weight"), -10 ** 30)]],
    ids=["path0", "path1", "path2"])
def test_huge_number_exits_2(tmp_path, capsys, command, edits):
    # a huge number fails before any allocation: no series of that length
    # exists
    code, out, err = run_input(capsys, tmp_path, edited(
        builtin("cp1"), *edits), command, "--m", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: a number is too large: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["rr", "character", "main-formula"])
def test_huge_m_exits_2(capsys, command):
    # a series of length 10**15 cannot be allocated: MemoryError at once
    code, out, err = run(capsys, command, "--builtin", "cp1", "--m",
                         str(10 ** 15))
    assert code == 2 and out == ""
    assert err == "error: a number is too large: MemoryError\n"


def test_unknown_builtin_message_is_not_quoted(capsys):
    code, out, err = run(capsys, "rr", "--builtin", "nope")
    assert code == 2 and out == ""
    assert err == ("error: unknown builtin 'nope'; available: cp1, cp001, "
                   "cp012, prod11, dgmw, dim6, dim6b, regval\n")


def test_verify_builtin_ok(capsys):
    code, out, err = run(capsys, "verify", "--builtin", "cp1")
    assert code == 0
    assert "verify cp1: ok" in out
    assert err == ""


def test_verify_all_builtins_ok(capsys):
    # README's own example: every builtin, in `builtin_names` order
    code, out, err = run(capsys, "verify", "--builtin", "all")
    assert (code, out, err) == (0, "".join(
        f"verify {name}: ok\n" for name in builtin_names()), "")


def test_verify_failed_balance_exits_1(tmp_path, capsys):
    # dim6's supplied kappa plus h^2, whose integral is 1: its character
    # divides, and the balance fails at every m that verify checks
    p = builtin("dim6")
    h = p.quotient.ring.generator("h")
    text = serialize(replace(p, quotient=replace(
        p.quotient, kappa_todd=p.quotient.kappa_todd + h * h)))
    assert run_input(capsys, tmp_path, text, "verify") == (
        1, "verify dim6: FAIL\n", "".join(
            f"FAIL dim6: main-formula balance m={m}\n" for m in range(1, 5)))


def test_verify_inconsistent_exits_1(tmp_path, capsys):
    code, out, err = run_input(capsys, tmp_path, serialize(
        builtin("cp1")).replace('"weight": 1', '"weight": 2'), "verify")
    assert code == 1
    assert err == ("FAIL cp1: character division (poles at roots of unity "
                   "fail to cancel; fixed-point data is inconsistent)\n")


def test_verify_runs_no_float_check(tmp_path, capsys):
    # every check verify runs is exact, so a weight of 9, whose Todd
    # series in x diverges at |x| = 1/9, skips none
    code, out, err = run_input(capsys, tmp_path, serialize(
        cpn_linear([0, 9], 1)), "verify")
    assert (code, out, err) == (0, "verify cpn[0,9]d1: ok\n", "")


@pytest.mark.parametrize("weights, shift", [([-1, 0, 1, 2], -1),
                                            ([-2, 0, 1, 3], -2)])
def test_verify_passes_orbifold_reductions(tmp_path, capsys, weights, shift):
    # rr(m) of these reductions is a quasi-polynomial of period 6 and 30,
    # which a single polynomial fit used to report as a failure
    p = cpn_linear(weights, 1, shift=shift)
    code, out, err = run_input(capsys, tmp_path, serialize(p), "verify")
    assert (code, out, err) == (0, f"verify {p.name}: ok\n", "")


# Input that `parse` never sees is one error line with exit 2 too.
@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe", "cannot read "), (None, "cannot read ")],
    ids=["not-utf-8", "missing"])
def test_unreadable_input_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "unreadable.json"
    if content is not None:
        path.write_bytes(content)
    code, out, err = run(capsys, "rr", "--input", str(path), "--m", "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert "Traceback" not in err


# A valid document whose results at m = 10 pass str()'s 4,300-digit limit,
# and one whose unsupported component has a long name.
HUGE_RESULT = edited(trivial_cp1(), (("components", 0, "omega"),
                                     NINES + " * h^1"))
LONG_UNSUPPORTED = edited(product(trivial_cp1(), builtin("dim6")),
                          (("components", 1, "name"),
                           "total*w0*w0*w1".ljust(LONG, "1")))


# An error line quotes the first few dozen characters of a long input value
# and its length, and a number past int()'s digit limit by its digit count;
# a document is read by `rr --input`, a weight's by `witten-check --input`.
@pytest.mark.parametrize("document, argv", [
    *((row.text, ("rr", "--m", "1")) for row in LONG_VALUES),
    (edited(builtin("cp1"), (("components", 0, "blocks", 0, "weight"),
                             10 ** 300)), ("witten-check",)),
    (None, ("rr", "--builtin", "x" * LONG)),
    (None, ("rr", "--input", "x" * LONG, "--m", "1")),
    (None, ("rr", "--builtin", "cp1", "--m", "y" * LONG)),
    (None, ("witten-check", "--builtin", "cp1", "--m", ",".join("8" * LONG))),
    (HUGE_RESULT, ("rr", "--m", "10")),
    (HUGE_RESULT, ("rr", "--m", "10", "--format", "json")),
    (HUGE_RESULT, ("character", "--m", "10")),
    (HUGE_RESULT, ("main-formula", "--m", "10")),
    (LONG_UNSUPPORTED, ("main-formula", "--m", "1"))],
    ids=[*(row.id for row in LONG_VALUES), "witten-check-weight",
         "builtin", "input", "m-spec", "witten-check-m", "huge-rr",
         "huge-rr-json", "huge-character", "huge-main-formula",
         "unsupported-name"])
def test_error_line_is_bounded(tmp_path, capsys, document, argv):
    code, out, err = (run(capsys, *argv) if document is None else
                      run_input(capsys, tmp_path, document, *argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.rstrip("\n")) <= 200 and "Traceback" not in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("path", ["missing.json", "cp1.json"])
def test_verify_all_with_input_exits_2(tmp_path, capsys, path):
    # --builtin all names its inputs itself, so any --input beside it is
    # an error, whether or not the file exists
    (tmp_path / "cp1.json").write_text(serialize(builtin("cp1")))
    code, out, err = run(capsys, "verify", "--builtin", "all",
                         "--input", str(tmp_path / path))
    assert (code, out, err) == (
        2, "", "error: specify exactly one of --builtin / --input\n")


# The modules a command or an import may leave loaded, besides the
# package's own: the numeric stack, and standard modules an exact command
# has no use for (dataclasses imports inspect, ast and dis, and execs the
# methods of every class it decorates; argparse, with gettext, cost more
# than the parse itself).
WATCHED = ("scipy", "numpy", "sympy", "dataclasses", "inspect", "cmath",
           "argparse", "gettext")

# Runs the snippet in argv[1] in a fresh interpreter, then prints the
# `result` it set and every package or watched module it left loaded.
PROBE = f"""
import json, sys
scope = {{}}
exec(sys.argv[1], scope)
print(json.dumps([scope["result"], sorted(
    m for m in sys.modules if m.startswith("equiloc.") or m in {WATCHED!r})]))
"""


def fresh_interpreter(script, *argv):
    """Run `script` in a new interpreter and decode the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def command(*argv):
    """A snippet whose `result` is main(argv)'s exit code; stdout is
    discarded."""
    return ("import contextlib, io\nfrom equiloc.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    result = main({list(argv)!r})\n")


@functools.lru_cache(maxsize=None)
def probe(snippet):
    """(result, the package and watched modules left loaded) of one snippet,
    run once for all the tests that read it."""
    result, loaded = fresh_interpreter(PROBE, snippet)
    return result, tuple(loaded)


# What a bare `import equiloc` loads; every other name of the package
# loads on first use.
EAGER = ["equiloc.localization", "equiloc.model", "equiloc.ring",
         "equiloc.zrational"]
PACKAGE_NAMES = """
import sys
import equiloc
result = [sorted(m for m in sys.modules if m.startswith("equiloc."))]
result += [callable(equiloc.quantize.main_formula_report),
           callable(equiloc.builtins.builtin),
           all(getattr(equiloc, name) is not None for name in equiloc.__all__)]
try:
    equiloc.nosuch
except AttributeError as e:
    result.append(str(e))
"""
PAIRING = ["equiloc.quantize", "equiloc.useries", "equiloc.witten",
           "inspect", "numpy"]

EXACT_COMMANDS = [
    ("rr", "--builtin", "dim6", "--m", "0:3"),
    ("character", "--builtin", "dim6", "--m", "2"),
    ("main-formula", "--input", str(PACKAGE / "data" / "dim6.json"),
     "--m", "1:3"),
    ("verify", "--builtin", "dim6")]
WITTEN_CHECK = ("witten-check", "--builtin", "cp1", "--m", "8,12,16,24")

# One row per snippet: the `result` it sets, and every package or watched
# module it leaves loaded.  No exact command loads the builders, the
# pairing's u-series or a watched module.  rr and character of a builtin
# run neither the formula nor the oracle, and main-formula of a document
# reads no builtin; verify of a builtin loads all three.  witten-check
# loads the u-series through witten, and numpy, which imports inspect; its
# quadrature is numpy's Gauss-Legendre rule and the bump a closed form, so
# neither scipy nor sympy loads; nor do the bump's derivatives behind the
# jump relation, which are float Taylor-mode arithmetic.
LOADS = [
    ("rr", command(*EXACT_COMMANDS[0]), 0,
     EAGER + ["equiloc.builtins", "equiloc.cli"]),
    ("character", command(*EXACT_COMMANDS[1]), 0,
     EAGER + ["equiloc.builtins", "equiloc.cli"]),
    ("main-formula", command(*EXACT_COMMANDS[2]), 0,
     EAGER + ["equiloc.cli", "equiloc.quantize"]),
    ("verify", command(*EXACT_COMMANDS[3]), 0,
     EAGER + ["equiloc.builtins", "equiloc.cli", "equiloc.oracle",
              "equiloc.quantize"]),
    ("witten-check", command(*WITTEN_CHECK), 0,
     EAGER + ["equiloc.builtins", "equiloc.cli"] + PAIRING),
    ("package", PACKAGE_NAMES,
     [EAGER, True, True, True, "module 'equiloc' has no attribute 'nosuch'"],
     EAGER + ["equiloc.builders", "equiloc.builtins", "equiloc.quantize"]),
    ("builders", "from equiloc import product\nresult = callable(product)",
     True, EAGER + ["equiloc.builders"]),
    ("bump", "from equiloc.witten import TestFunction\nphi = TestFunction()\n"
     "result = all(phi.derivative(j)(0.17) != 0 for j in (1, 2, 3))",
     True, EAGER + PAIRING)]


@pytest.mark.parametrize("snippet, result, modules",
                         [row[1:] for row in LOADS],
                         ids=[row[0] for row in LOADS])
def test_loaded_modules(snippet, result, modules):
    assert probe(snippet) == (result, tuple(sorted(modules)))


# The tests below each read one property of a command's row off the same
# probe: that it loads no watched module, neither the builders nor the
# u-series, only the on-demand modules it runs, and, for witten-check, the
# u-series and numpy.
LAZY = ("equiloc.builders", "equiloc.useries")
ON_DEMAND = ("equiloc.quantize", "equiloc.builtins", "equiloc.oracle")


@pytest.mark.parametrize("argv", EXACT_COMMANDS)
def test_exact_commands_load_no_numeric_stack(argv):
    code, loaded = probe(command(*argv))
    assert (code, [m for m in WATCHED if m in loaded]) == (0, [])


@pytest.mark.parametrize("argv", EXACT_COMMANDS)
def test_exact_commands_load_neither_builders_nor_useries(argv):
    code, loaded = probe(command(*argv))
    assert (code, [m for m in LAZY if m in loaded]) == (0, [])


@pytest.mark.parametrize("argv, modules", [
    (EXACT_COMMANDS[0], ["equiloc.builtins"]),
    (EXACT_COMMANDS[1], ["equiloc.builtins"]),
    (EXACT_COMMANDS[2], ["equiloc.quantize"]),
    (EXACT_COMMANDS[3], list(ON_DEMAND))], ids=lambda v: v[0])
def test_exact_commands_load_only_the_modules_they_run(argv, modules):
    code, loaded = probe(command(*argv))
    assert (code, [m for m in ON_DEMAND if m in loaded]) == (0, modules)


def test_witten_check_loads_useries_not_builders():
    code, loaded = probe(command(*WITTEN_CHECK))
    assert (code, [m for m in LAZY if m in loaded]) == (0, ["equiloc.useries"])


def test_witten_check_loads_numpy_not_scipy_or_sympy():
    code, loaded = probe(command(*WITTEN_CHECK))
    assert (code, [m for m in WATCHED[:3] if m in loaded]) == (0, ["numpy"])


# The benchmark's traced cli.import_s reads `-X importtime`, which logs an
# import that goes through `__import__` and not one through importlib.
LAZY_IMPORTTIME = """
import json, subprocess, sys
err = subprocess.run([sys.executable, "-X", "importtime", "-c",
                      "import equiloc; equiloc.quantize; equiloc.builtin"],
                     capture_output=True, text=True, check=True).stderr
print(json.dumps(sorted(line.split("|")[-1].strip()
                        for line in err.splitlines() if "equiloc." in line)))
"""


def test_lazy_modules_show_in_importtime():
    assert fresh_interpreter(LAZY_IMPORTTIME) == [
        "equiloc.builtins", "equiloc.localization", "equiloc.model",
        "equiloc.quantize", "equiloc.ring", "equiloc.zrational"]


def test_witten_check_cli(capsys):
    code, out, _ = run(capsys, "witten-check", "--builtin", "cp1",
                       "--m", "8,12,16,24")
    assert code == 0
    assert "decay exponent" in out


@pytest.mark.parametrize("spec", ["abc", "3:1", "1,,2", "-1", "1:x", "1_0",
                                  "\u0663", "+3", "3:\u0661"])
def test_malformed_m_exits_2(capsys, spec):
    code, out, err = run(capsys, "rr", "--builtin", "cp1", "--m", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --m") and err.count("\n") == 1
    assert "Traceback" not in err


def test_m_accepts_whitespace_around_numbers(capsys):
    code, out, _ = run(capsys, "rr", "--builtin", "cp1", "--m", " 2 , 3 ")
    assert code == 0 and out == ("m=2 rr_invariant=1 rr_total=3\n"
                                 "m=3 rr_invariant=1 rr_total=4\n")
    code, out, _ = run(capsys, "rr", "--builtin", "cp1", "--m", "2: 3")
    assert code == 0 and out.count("\n") == 2


@pytest.mark.parametrize("spec", ["8", "8,16,32", "0,8,16,32",
                                  "8,8,16,16"])
def test_witten_check_needs_four_positive_m(capsys, spec):
    code, _, err = run(capsys, "witten-check", "--builtin", "cp1",
                       "--m", spec)
    assert code == 2
    assert err.startswith("error: --m") and err.count("\n") == 1


def test_witten_check_cancellation_is_a_numeric_failure(capsys):
    # float cancellation at m=512 is a verification failure (exit 1), not
    # inconsistent data (exit 3), and prints no traceback
    code, _, err = run(capsys, "witten-check", "--builtin", "cp1",
                       "--m", "8,16,32,512")
    assert code == 1
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["rr", "character", "main-formula",
                                     "witten-check", "verify"])
@pytest.mark.parametrize("option", [("--tolerance", "1e-3"),
                                    ("--seed", "3")])
def test_seed_and_tolerance_are_rejected(capsys, command, option):
    # verify's checks draw nothing at random, and no command has a seed or
    # a tolerance
    m = [] if command == "verify" else ["--m", "2"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--builtin", "cp1", *m, *option])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [
        f"equiloc: error: unrecognized arguments: {' '.join(option)}"]
    assert "Traceback" not in err


def test_verify_has_no_format_option(capsys):
    # verify prints text lines only; --format belongs to the computing
    # commands
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--builtin", "cp1", "--format", "json"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "unrecognized arguments: --format json" in err
    assert "Traceback" not in err


# (argv, exit code, `error:` lines): every row but the last reads as it did
# when argparse parsed the argv; help exits 0 without an error line.
ARGV_ROWS = [
    ((), 2, ["equiloc: error: the following arguments are required: "
             "command"]),
    (("nosuch",), 2, ["equiloc: error: argument command: invalid choice: "
                      "'nosuch' (choose from 'rr', 'character', "
                      "'main-formula', 'witten-check', 'verify')"]),
    (("rr", "--format", "xml"), 2, [
        "equiloc rr: error: argument --format: invalid choice: 'xml' "
        "(choose from 'text', 'json')"]),
    (("rr", "--m"), 2, ["equiloc rr: error: argument --m: expected one "
                        "argument"]),
    (("rr", "--builtin", "--m", "1"), 2, [
        "equiloc rr: error: argument --builtin: expected one argument"]),
    (("verify", "--builtin", "cp1", "--m", "2"), 2, [
        "equiloc: error: unrecognized arguments: --m 2"]),
    (("rr", "--builtin", "cp1", "--m=2"), 0, []),
    (("rr", "--builtin=cp1", "--m", "2"), 0, []),
    (("rr", "--builtin", "cp1", "--m", "1", "--m", "2"), 0, []),
    (("rr", "--builtin", "cp1", "--m", "-1"), 2, [
        "error: --m -1: m must be nonnegative"]),
    (("rr", "-h"), 0, []),
    (("--help",), 0, []),
    (("rr", "--builtin", "cp1", "--m", "3:1"), 2, [
        "error: --m 3:1: empty m range"]),
    (("rr", "--builtin", "cp1", "--m", "abc"), 2, [
        "error: --m abc: expected INT, A:B or a comma list of integers"]),
    # argparse took an abbreviated option (--form for --format) with exit 0
    (("rr", "--builtin", "cp1", "--form", "json"), 2, [
        "equiloc: error: unrecognized arguments: --form json"]),
]


@pytest.mark.parametrize("argv, code, errors", ARGV_ROWS,
                         ids=[" ".join(argv) or "(none)"
                              for argv, _, _ in ARGV_ROWS])
def test_argv_rows(capsys, argv, code, errors):
    try:
        got = main(list(argv))
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    assert (got, [line for line in err.splitlines()
                  if "error:" in line]) == (code, errors)
    assert "Traceback" not in err
    if code == 0 and not {"-h", "--help"} & set(argv):
        assert out == "m=2 rr_invariant=1 rr_total=3\n"


def help_text(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    return out


def test_help_is_built_from_the_command_table(capsys):
    from equiloc.cli import _COMMANDS
    out = help_text(capsys, "--help")
    assert out.startswith("usage: equiloc [-h] "
                          "{rr,character,main-formula,witten-check,verify}")
    for name, _, _, about in _COMMANDS:
        assert f"  {name} " in out and about in out
    rr = help_text(capsys, "rr", "--builtin", "cp1", "-h")
    assert rr.startswith("usage: equiloc rr [-h] [--builtin BUILTIN] "
                         "[--input INPUT] [--m M] [--format {text,json}]\n")
    assert "invariant and total Riemann-Roch numbers" in rr
    verify = help_text(capsys, "verify", "--help")
    assert "--builtin" in verify and "--input" in verify
    assert "--m" not in verify and "--format" not in verify
