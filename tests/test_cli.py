"""Command-line interface: reports, schemas, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equiloc
from equiloc import builtin, cpn_linear, product, serialize, trivial_cp1
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
    ('"free_on_regular": true', '"free_on_regular": "false"'),
    ('"weight": 1', '"weight": true'),
    ('"dim_M": 2', '"dim_M": 2.0'),
    ('"dim_F": 0', '"dim_F": "0"')])
def test_mistyped_field_exits_2(tmp_path, capsys, old, new):
    path = tmp_path / "mistyped.json"
    path.write_text(serialize(builtin("cp1")).replace(old, new))
    code, out, err = run(capsys, "rr", "--input", str(path), "--m", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("old, new", [
    ('"omega": "1 * h^1"', '"omega": "1/0 * h^1"'),
    ('"h^1": "1"', '"h^1": "1/0"')])
def test_zero_denominator_exits_2(tmp_path, capsys, old, new):
    path = tmp_path / "zero_denominator.json"
    path.write_text(serialize(builtin("cp001")).replace(old, new))
    code, out, err = run(capsys, "rr", "--input", str(path), "--m", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: components[0]") and err.count("\n") == 1
    assert "Traceback" not in err


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


def test_inconsistent_input_exits_3(tmp_path, capsys):
    text = serialize(builtin("cp1")).replace('"weight": 1', '"weight": 2')
    path = tmp_path / "inconsistent.json"
    path.write_text(text)
    code, _, err = run(capsys, "rr", "--input", str(path), "--m", "1")
    assert code == 3
    assert "inconsistency" in err


@pytest.mark.parametrize("command", ["main-formula", "rr"])
def test_non_integer_multiplicity_exits_3(tmp_path, capsys, command):
    # the sphere's integral halved: the character at m = 2 is 3/2
    text = serialize(trivial_cp1()).replace('"h^1": "1"', '"h^1": "1/2"')
    path = tmp_path / "half.json"
    path.write_text(text)
    code, out, err = run(capsys, command, "--input", str(path), "--m", "2")
    assert code == 3 and out == ""
    assert err.startswith("mathematical inconsistency: ")
    assert err.count("\n") == 1 and "3/2" in err


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
    assert "pole-cancellation" in err


def test_verify_reports_skipped_kirillov_check(tmp_path, capsys):
    # weight 9 at the sample x = 0.1 is past the check's convergence margin
    path = tmp_path / "cp09.json"
    path.write_text(serialize(cpn_linear([0, 9], 1)))
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 0
    assert out == "verify cpn[0,9]d1: ok\n"
    assert err == "SKIP cpn[0,9]d1: kirillov (max weight 9 >= 9)\n"


# Runs main(argv) in a fresh interpreter, then prints its exit code and
# which of the numeric packages the run left loaded.
NUMERIC_IMPORTS = """
import contextlib, io, json, sys
from equiloc.cli import main
from equiloc.model import product
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, [m for m in ("scipy", "numpy", "sympy")
                         if m in sys.modules]]))
"""


def numeric_imports(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", NUMERIC_IMPORTS, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


@pytest.mark.parametrize("argv", [
    ("rr", "--builtin", "dim6", "--m", "0:3"),
    ("character", "--builtin", "dim6", "--m", "2"),
    ("main-formula", "--input", str(PACKAGE / "data" / "dim6.json"),
     "--m", "1:3"),
    ("verify", "--builtin", "dim6")])
def test_exact_commands_load_no_numeric_stack(argv):
    assert numeric_imports(*argv) == (0, [])


def test_witten_check_loads_scipy():
    # positive control: the harness above does see a scipy import
    code, loaded = numeric_imports("witten-check", "--builtin", "cp1",
                                   "--m", "8,12,16,24")
    assert code == 0 and "scipy" in loaded


def test_witten_check_cli(capsys):
    code, out, _ = run(capsys, "witten-check", "--builtin", "cp1",
                       "--m", "8,12,16,24")
    assert code == 0
    assert "decay exponent" in out


@pytest.mark.parametrize("spec", ["abc", "3:1", "1,,2", "-1", "1:x"])
def test_malformed_m_exits_2(capsys, spec):
    code, out, err = run(capsys, "rr", "--builtin", "cp1", "--m", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --m") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", ["8", "8,16,32", "0,8,16,32"])
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
                                     "witten-check"])
@pytest.mark.parametrize("option", [("--tolerance", "1e-3"),
                                    ("--seed", "3")])
def test_verify_options_are_rejected_elsewhere(capsys, command, option):
    # --seed and --tolerance steer only verify's checks
    with pytest.raises(SystemExit) as exc:
        main([command, "--builtin", "cp1", "--m", "2", *option])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert f"unrecognized arguments: {' '.join(option)}" in err
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


def test_verify_takes_seed_and_tolerance(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "cp1", "--seed", "3",
                       "--tolerance", "1e-6")
    assert code == 0 and out == "verify cp1: ok\n"
