"""Command-line interface: reports, schemas, exit codes, determinism."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equiloc
from equiloc import (builtin, cpn_linear, disjoint_union, parse, product,
                     serialize, shift_moment, trivial_cp1)
from equiloc.cli import main

PACKAGE = Path(equiloc.__file__).resolve().parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    path = tmp_path / "p.json"
    path.write_text(serialize(builtin("cp1")))
    code, out, _ = run(capsys, "rr", "--input", str(path), "--m", "5")
    assert code == 0 and "rr_total=6" in out


def test_bad_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ definitely not json")
    code, _, err = run(capsys, "rr", "--input", str(path), "--m", "1")
    assert code == 2
    assert "syntax error" in err


def test_invalid_document_exits_2(tmp_path, capsys):
    text = serialize(builtin("cp1")).replace('"weight": 1', '"weight": 0')
    path = tmp_path / "zero.json"
    path.write_text(text)
    code, _, err = run(capsys, "rr", "--input", str(path), "--m", "1")
    assert code == 2
    assert "WeightZero" in err


@pytest.mark.parametrize("old, new", [
    ('"moment": 1,', '"moment": 1.7,'),
    ('"name": "w0"', '"name": 0'),
    ('"weight": 1', '"weight": true'),
    ('"dim_M": 2', '"dim_M": 2.0'),
    ('"truncation": 0', '"truncation": false')])
def test_mistyped_field_exits_2(tmp_path, capsys, old, new):
    path = tmp_path / "mistyped.json"
    path.write_text(serialize(builtin("cp1")).replace(old, new))
    code, out, err = run(capsys, "rr", "--input", str(path), "--m", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("old, new", [
    ('"omega": "1 * h^1"', '"omega": "1/0 * h^1"'),
    ('"h^1": "1"', '"h^1": "1/0"'),
    ('"omega": "1 * h^1"', '"omega": "h *"')])
def test_zero_denominator_exits_2(tmp_path, capsys, old, new):
    path = tmp_path / "zero_denominator.json"
    path.write_text(serialize(builtin("cp001")).replace(old, new))
    code, out, err = run(capsys, "rr", "--input", str(path), "--m", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: components[0]") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("old, new, message", [
    ('"omega": "1 * h^1"', '"omega": "1 * h^1 + 7 * h^3"',
     "error: components[0]: omega: term h^3 of degree 6 is above the "
     "truncation degree 2"),
    ('"h^1": "1"', '"h^1": "1", "h^1": "5"', "error: repeated key 'h^1'")])
def test_dropped_or_overwritten_input_exits_2(tmp_path, capsys, old, new,
                                              message):
    # a class term above the truncation degree, or the second of two equal
    # keys, used to parse with exit 0
    path = tmp_path / "cp001.json"
    path.write_text(serialize(builtin("cp001")).replace(old, new))
    code, out, err = run(capsys, "rr", "--input", str(path), "--m", "1")
    assert (code, out, err) == (2, "", message + "\n")


@pytest.mark.parametrize("path, value", [
    (("components",), 3),
    (("components", 0, "ring"), []),
    (("components", 0, "ring", "integrals"), []),
    (("components", 0, "blocks", 0, "chern_roots"), "0"),
    (("components", 0, "todd"), 3),
    (("components", 0, "blocks", 0, "chern_roots", 0), 0),
    (("quotient", "omega0"), [])])
def test_misshapen_container_exits_2(tmp_path, capsys, path, value):
    doc = json.loads(serialize(builtin("cp001")))
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    file = tmp_path / "misshapen.json"
    file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "rr", "--input", str(file), "--m", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{last} must be" in err


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
    path = tmp_path / "inconsistent.json"
    path.write_text(text)
    got, out, err = run(capsys, command, "--input", str(path), *argv)
    assert got == code
    if code == 0:
        assert err == "" and "decay exponent" in out
    if code == 3:
        assert out == "" and err.count("\n") == 1
        assert err.startswith("mathematical inconsistency: poles at roots "
                              "of unity fail to cancel; ")


# Rings that integrate wrongly used to parse with exit 0 and wrong numbers:
# cp1 with both point integrals "2" read rr_invariant 2 at m = 1 (it is 1),
# with both "0" read 0, and trivial_cp1 without integrals read 0 at m = 3
# (it is 4).
@pytest.mark.parametrize("p, where, integrals, message", [
    (builtin("cp1"), "components", {"1": "2"},
     "[PointRingNotTrivial] cp1/w0: "),
    (builtin("cp1"), "components", {"1": "0"}, "[IntegralsZero] cp1/w0: "),
    (trivial_cp1(), "components", {},
     "[IntegralsZero] trivial_cp1_d1/total: "),
    (trivial_cp1(), "components", None,
     "error: components[0]: ring has no key 'integrals'\n"),
    (builtin("regval"), "quotient", {}, "[IntegralsZero] regval/quotient: ")],
    ids=["point-2", "point-0", "empty", "missing", "quotient-empty"])
def test_ring_that_integrates_wrongly_exits_2(tmp_path, capsys, p, where,
                                              integrals, message):
    doc = json.loads(serialize(p))
    for obj in [doc["quotient"]] if where == "quotient" else doc[where]:
        if integrals is None:
            del obj["ring"]["integrals"]
        else:
            obj["ring"]["integrals"] = integrals
    path = tmp_path / "integrals.json"
    path.write_text(json.dumps(doc))
    for m in ("1", "3"):
        code, out, err = run(capsys, "rr", "--input", str(path), "--m", m)
        assert (code, out) == (2, "") and message in err


HALF_SPHERE = serialize(trivial_cp1()).replace('"h^1": "1"', '"h^1": "1/2"')


@pytest.mark.parametrize("command", ["main-formula", "rr", "character"])
def test_non_integer_multiplicity_exits_3(tmp_path, capsys, command):
    # the sphere's integral halved: the character at m = 2 is 3/2
    path = tmp_path / "half.json"
    path.write_text(HALF_SPHERE)
    code, out, err = run(capsys, command, "--input", str(path), "--m", "2")
    assert code == 3 and out == ""
    assert err.startswith("mathematical inconsistency: ")
    assert err.count("\n") == 1 and "3/2" in err


def half_sphere_off_z0(tmp_path):
    """cp1 beside the half sphere at moment 1: at m = 2 the z^0
    coefficient is an integer and the z^2 coefficient 5/2 is not."""
    p = disjoint_union(builtin("cp1"), shift_moment(parse(HALF_SPHERE), 1))
    path = tmp_path / "off_z0.json"
    path.write_text(serialize(p))
    return path


@pytest.mark.parametrize("command", ["main-formula", "rr", "character"])
def test_non_integer_coefficient_off_z0_exits_3(tmp_path, capsys, command):
    path = half_sphere_off_z0(tmp_path)
    code, out, err = run(capsys, command, "--input", str(path), "--m", "2")
    assert (code, out, err) == (
        3, "", "mathematical inconsistency: coefficient of z^2 is 5/2, "
        "not an integer\n")


def test_verify_non_integer_character_exits_1(tmp_path, capsys):
    code, out, err = run(capsys, "verify", "--input",
                         str(half_sphere_off_z0(tmp_path)))
    assert code == 1 and out.endswith(": FAIL\n")
    assert err.count("\n") == 1
    assert err.endswith(": character division (coefficient of z^0 is 3/2, "
                        "not an integer)\n")


def test_duplicate_component_name_exits_2(tmp_path, capsys):
    # residue terms are keyed by component name: a second p0.w0 used to
    # drop a term and report balance=FALSE with exit 0
    doc = json.loads(serialize(builtin("dgmw")))
    doc["components"][5]["name"] = "p0.w0"
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "main-formula", "--input", str(path),
                         "--m", "1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "[DuplicateName] dgmw/p0.w0" in err


def test_validation_diagnostics_print_once(tmp_path, capsys):
    doc = json.loads(serialize(builtin("cp1")))
    doc["dim_M"] = 3
    doc["components"][0]["blocks"][0]["weight"] = 0
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "rr", "--input", str(path), "--m", "1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert "[DimensionOdd]" in err and "[WeightZero]" in err


@pytest.mark.parametrize("command, m", [("main-formula", "1"),
                                        ("witten-check", "8,16,32,64")])
def test_unsupported_exceptional_exits_2(tmp_path, capsys, command, m):
    # valid data with positive-dimensional indefinite moment-zero
    # components, whose exceptional term a flat presentation cannot give
    path = tmp_path / "product.json"
    path.write_text(serialize(product(trivial_cp1(), builtin("dim6"))))
    code, out, err = run(capsys, command, "--input", str(path), "--m", m)
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
    path = tmp_path / "cp2.json"
    path.write_text(serialize(cpn_linear([-1, 0, 0, 1, 1], 1, shift=-1)))
    code, out, err = run(capsys, "witten-check", "--input", str(path))
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
    path = tmp_path / "cp05.json"
    path.write_text(serialize(cpn_linear([0, 5], 1)))
    code, out, err = run(capsys, "witten-check", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: max weight 5:") and err.count("\n") == 1


def test_witten_check_without_quotient_decays(tmp_path, capsys):
    # no quotient data and a nonzero residue: the regular term is the
    # diagnostic rr - residues - exceptionals, so the residues count once
    path = tmp_path / "cp001.json"
    path.write_text(serialize(cpn_linear([0, 0, 1], 1)))
    code, out, _ = run(capsys, "witten-check", "--input", str(path),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["exponent"] <= -3


@pytest.mark.parametrize("command", ["rr", "character", "main-formula"])
@pytest.mark.parametrize("path", [("components", 0, "blocks", 0, "weight"),
                                  ("components", 1, "moment")])
def test_huge_number_exits_2(tmp_path, capsys, command, path):
    # 10**30 fails before any allocation: no series of that length exists
    doc = json.loads(serialize(builtin("cp1")))
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = 10 ** 30
    file = tmp_path / "huge.json"
    file.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--input", str(file), "--m", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "too large" in err


@pytest.mark.parametrize("command", ["rr", "character", "main-formula"])
def test_huge_m_exits_2(capsys, command):
    # a series of length 10**15 cannot be allocated: MemoryError at once
    code, out, err = run(capsys, command, "--builtin", "cp1", "--m",
                         str(10 ** 15))
    assert code == 2 and out == ""
    assert err == "error: a weight, moment or m is too large: MemoryError\n"


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


def test_verify_inconsistent_exits_1(tmp_path, capsys):
    text = serialize(builtin("cp1")).replace('"weight": 1', '"weight": 2')
    path = tmp_path / "inconsistent.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 1
    assert err == ("FAIL cp1: character division (poles at roots of unity "
                   "fail to cancel; fixed-point data is inconsistent)\n")


def test_verify_runs_no_float_check(tmp_path, capsys):
    # every check verify runs is exact, so a weight of 9, whose Todd
    # series in x diverges at |x| = 1/9, skips none
    path = tmp_path / "cp09.json"
    path.write_text(serialize(cpn_linear([0, 9], 1)))
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert (code, out, err) == (0, "verify cpn[0,9]d1: ok\n", "")


@pytest.mark.parametrize("weights, shift", [([-1, 0, 1, 2], -1),
                                            ([-2, 0, 1, 3], -2)])
def test_verify_passes_orbifold_reductions(tmp_path, capsys, weights, shift):
    # rr(m) of these reductions is a quasi-polynomial of period 6 and 30,
    # which a single polynomial fit used to report as a failure
    p = cpn_linear(weights, 1, shift=shift)
    path = tmp_path / "orbifold.json"
    path.write_text(serialize(p))
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert (code, out, err) == (0, f"verify {p.name}: ok\n", "")


def retired_free_on_regular(doc):
    doc["free_on_regular"] = True


def retired_dim_F(doc):
    doc["components"][1]["dim_F"] = 0


def misspelt_quotient(doc):
    doc["quotent"] = doc.pop("quotient")


def block_comment(doc):
    doc["components"][0]["blocks"][0]["comment"] = "the weight-1 line"


# A key parse does not read is an input error that names the key and the
# object holding it, never silently dropped: a misspelt "quotient" would
# otherwise turn the supplied regular term into a diagnostic.
@pytest.mark.parametrize("edit, where, key", [
    (retired_free_on_regular, "document", "free_on_regular"),
    (retired_dim_F, "components[1]", "dim_F"),
    (misspelt_quotient, "document", "quotent"),
    (block_comment, "components[0]: blocks[0]", "comment")])
def test_unknown_key_exits_2(tmp_path, capsys, edit, where, key):
    doc = json.loads(serialize(builtin("cp1")))
    edit(doc)
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "main-formula", "--input", str(path),
                         "--m", "1")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {where} has unknown key '{key}' (a ")


def long_number(where):
    """cp001's document with a number of 5,000 digits, past int()'s
    default limit of 4,300, as a JSON integer or in a class string."""
    text = serialize(builtin("cp001"))
    old = {"moment": '"moment": 1,', "class": '"omega": "1 * h^1"'}[where]
    return text.replace(old, old.replace("1", "1" + "0" * 4999, 1)).encode()


# Each input that cannot be read as a document is one error line with
# exit 2, never a traceback.
@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe", "cannot read "),
    (b"[" * 100_000, "syntax error: nested too deeply"),
    (long_number("moment"), "an integer has more than 4300 digits"),
    (long_number("class"),
     "components[0]: omega: a number has 5000 digits, more than 4300")],
    ids=["not-utf-8", "deep", "long-integer", "long-coefficient"])
def test_unreadable_input_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "rr", "--input", str(path), "--m", "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert "Traceback" not in err


def edited(old, new):
    """cp001's document with the first `old` in it replaced by `new`."""
    text = serialize(builtin("cp001"))
    assert old in text
    return text.replace(old, new, 1)


GENERATOR = '{\n            "degree": 2,\n            "name": "h"\n          }'
LONG = 5000


# An error line quotes the first few dozen characters of a long input value
# and its length, and a number past int()'s digit limit by its digit count;
# a document is read by `rr --input`.
@pytest.mark.parametrize("document, argv", [
    (edited('"h^1": "1"', '"h^1' + "0" * (LONG - 1) + '": "1"'), ()),
    (json.dumps("\n" * LONG), ()),
    (edited('"dim_M": 4', '"dim_M": 4, "' + "k" * LONG + '": 1'), ()),
    (edited('"1 * h^1"', '"1 * ' + "g" * LONG + '"'), ()),
    (edited('"moment": 1', '"moment": "' + "1" * LONG + '"'), ()),
    (edited(GENERATOR, "[" * 900 + "]" * 900), ()),
    (edited('"1 * h^1"', '"1' + "0" * (LONG - 1) + ' * h^1"'), ()),
    (edited('"dim_M": 4', 2 * ('"' + "k" * LONG + '": 1, ') + '"dim_M": 4'),
     ()),
    (edited('"h^1": "1"', '"h^' + "1" * 4000 + '": "1"'), ()),
    (edited('"1 * h^1"', '"1 * h^' + "1" * 4000 + '"'), ()),
    (edited('"1 * h^1"', '"1 * h^' + "9" * 4300 + '"'), ()),
    (None, ("rr", "--builtin", "x" * LONG)),
    (None, ("rr", "--builtin", "cp1", "--m", "y" * LONG)),
    (None, ("witten-check", "--builtin", "cp1", "--m", ",".join("8" * LONG)))],
    ids=["integral-key-digits", "string-document", "unknown-key",
         "unknown-generator", "string-moment", "nested-generator",
         "coefficient-digits", "repeated-key", "integral-key-degree",
         "term-degree", "term-degree-digits", "builtin", "m-spec",
         "witten-check-m"])
def test_error_line_is_bounded(tmp_path, capsys, document, argv):
    path = tmp_path / "long.json"
    if document is not None:
        path.write_text(document)
        argv = ("rr", "--input", str(path), "--m", "1")
    code, out, err = run(capsys, *argv)
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


NUMERIC = ("scipy", "numpy", "sympy")
# Standard modules an exact command has no use for: dataclasses imports
# inspect, ast and dis, and execs the methods of every class it decorates;
# argparse, with gettext, cost more than the parse itself.
UNUSED_STDLIB = ("dataclasses", "inspect", "cmath", "argparse", "gettext")
# The package's modules that no exact command calls: the builders and the
# pairing's u-series.
LAZY = ("equiloc.builders", "equiloc.useries")
# The package's modules that a command loads only when it runs them.
ON_DEMAND = ("equiloc.quantize", "equiloc.builtins", "equiloc.oracle")

# Runs main(argv) in a fresh interpreter, then prints its exit code and
# which of the modules above the run left loaded.
NUMERIC_IMPORTS = f"""
import contextlib, io, json, sys
from equiloc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, [m for m in {NUMERIC + UNUSED_STDLIB + LAZY +
                                    ON_DEMAND!r}
                         if m in sys.modules]]))
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


@functools.lru_cache(maxsize=None)
def numeric_imports(*argv):
    """(exit code, the modules above left loaded) of one command, run once
    for all the tests that read it."""
    code, loaded = fresh_interpreter(NUMERIC_IMPORTS, *argv)
    return code, tuple(loaded)


EXACT_COMMANDS = [
    ("rr", "--builtin", "dim6", "--m", "0:3"),
    ("character", "--builtin", "dim6", "--m", "2"),
    ("main-formula", "--input", str(PACKAGE / "data" / "dim6.json"),
     "--m", "1:3"),
    ("verify", "--builtin", "dim6")]
WITTEN_CHECK = ("witten-check", "--builtin", "cp1", "--m", "8,12,16,24")


@pytest.mark.parametrize("argv", EXACT_COMMANDS)
def test_exact_commands_load_no_numeric_stack(argv):
    code, loaded = numeric_imports(*argv)
    unused = NUMERIC + UNUSED_STDLIB
    assert (code, [m for m in loaded if m in unused]) == (0, [])


@pytest.mark.parametrize("argv", EXACT_COMMANDS)
def test_exact_commands_load_neither_builders_nor_useries(argv):
    code, loaded = numeric_imports(*argv)
    assert (code, [m for m in loaded if m in LAZY]) == (0, [])


# rr and character of a builtin run neither the formula nor the oracle, and
# main-formula of a document reads no builtin; verify of a builtin, the
# positive control, loads all three.
@pytest.mark.parametrize("argv, modules", [
    (EXACT_COMMANDS[0], ["equiloc.builtins"]),
    (EXACT_COMMANDS[1], ["equiloc.builtins"]),
    (EXACT_COMMANDS[2], ["equiloc.quantize"]),
    (EXACT_COMMANDS[3], list(ON_DEMAND))], ids=lambda v: v[0])
def test_exact_commands_load_only_the_modules_they_run(argv, modules):
    code, loaded = numeric_imports(*argv)
    assert (code, [m for m in loaded if m in ON_DEMAND]) == (0, modules)


def test_witten_check_loads_useries_not_builders():
    # positive control: the pairing's u-series do load, through witten
    code, loaded = numeric_imports(*WITTEN_CHECK)
    assert (code, [m for m in loaded if m in LAZY]) == (0, ["equiloc.useries"])


BUILDER_IMPORTS = f"""
import json, sys
from equiloc import product
print(json.dumps([m for m in {NUMERIC + LAZY!r} if m in sys.modules]))
"""


LAZY_PACKAGE = """
import json, sys
import equiloc
eager = sorted(m for m in sys.modules if m.startswith("equiloc."))
# a bare `import equiloc`, then a module read as an attribute
found = [callable(equiloc.quantize.main_formula_report),
         callable(equiloc.builtins.builtin),
         all(getattr(equiloc, name) is not None for name in equiloc.__all__)]
try:
    equiloc.nosuch
except AttributeError as e:
    found.append(str(e))
print(json.dumps([eager, found]))
"""


def test_lazy_package_resolves_every_public_name():
    eager, found = fresh_interpreter(LAZY_PACKAGE)
    assert eager == ["equiloc.localization", "equiloc.model", "equiloc.ring",
                     "equiloc.zrational"]
    assert found == [True, True, True,
                     "module 'equiloc' has no attribute 'nosuch'"]


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


def test_public_builders_load_on_first_use():
    # `equiloc` re-exports the builders lazily: the first one asked for
    # loads their module, and nothing of the pairing with it
    assert fresh_interpreter(BUILDER_IMPORTS) == ["equiloc.builders"]


def test_witten_check_loads_numpy_not_scipy_or_sympy():
    # positive control: the harness above does see a numpy import; the
    # quadrature is numpy's Gauss-Legendre rule and the bump a closed form,
    # so neither scipy nor sympy loads (numpy itself imports inspect)
    code, loaded = numeric_imports(*WITTEN_CHECK)
    assert (code, [m for m in loaded if m in NUMERIC]) == (0, ["numpy"])


BUMP_DERIVATIVES = """
import json, sys
from equiloc.witten import TestFunction
phi = TestFunction()
print(json.dumps([[phi.derivative(j)(0.17) for j in (1, 2, 3)],
                  "sympy" in sys.modules]))
"""


def test_bump_derivatives_load_no_sympy():
    # the derivatives behind the jump relation are float Taylor-mode
    # arithmetic, so evaluating them leaves sympy unloaded
    values, sympy_loaded = fresh_interpreter(BUMP_DERIVATIVES)
    assert all(v != 0 for v in values)
    assert not sympy_loaded


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


# A later component repeats an earlier ring block, retyped: a parse that
# reused the earlier ring for an equal-looking block (False == 0, True == 1)
# would accept it.
RETYPED_RING = [
    (lambda ring: ring.update(truncation=False),
     "truncation must be int, got False"),
    (lambda ring: ring["generators"][0].update(degree=True),
     "generators[0]: degree must be int, got True"),
    (lambda ring: ring["integrals"].update({"h^1": 1}),
     "integral 'h^1' must be string, got 1")]


@pytest.mark.parametrize("edit, message", RETYPED_RING)
def test_retyped_repeated_ring_block_exits_2(capsys, tmp_path, edit,
                                             message):
    doc = json.loads(serialize(cpn_linear([0, 0, 1, 1], 1)))
    first, second = doc["components"]
    assert first["ring"] == second["ring"]
    edit(second["ring"])
    path = tmp_path / "retyped.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "rr", "--input", str(path), "--m", "1")
    assert (code, out) == (2, "")
    assert err == f"error: components[1]: ring: {message}\n"
